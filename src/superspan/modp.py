"""Polynomials over F_p for a prime p, and their roots.

Polynomials are int coefficient lists reduced mod p, constant term
first, with trailing zeros trimmed ([] is the zero polynomial).
"""


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return poly_trim([c % p for c in out])


def poly_mod(a, f, p):
    # f monic mod p
    a = list(a)
    while len(a) >= len(f):
        c = a.pop() % p
        if c:
            shift = len(a) - len(f) + 1
            for i in range(len(f) - 1):
                a[shift + i] -= c * f[i]
    return poly_trim([c % p for c in a])


def poly_divmod(a, b, p):
    q: list = []
    r = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b) and r:
        c = (r[-1] * inv_lead) % p
        shift = len(r) - len(b)
        while len(q) <= shift:
            q.append(0)
        q[shift] = (q[shift] + c) % p
        for i in range(len(b)):
            r[shift + i] = (r[shift + i] - c * b[i]) % p
        poly_trim(r)
    return poly_trim(q), r


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_gcd(a, b, p):
    # the monic gcd, by Euclid on remainders alone
    g, r = list(a), list(b)
    while r:
        g, r = r, poly_divmod(g, r, p)[1]
    inv_lead = pow(g[-1], p - 2, p)
    return [(c * inv_lead) % p for c in g]


def poly_powmod(a, e, f, p):
    # a**e modulo a monic f
    result, base = [1], poly_mod(a, f, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), f, p)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base, p), f, p)
    return result


def poly_roots(f, p):
    """The distinct roots in F_p of a monic f of positive degree, sorted.

    g = gcd(x^p - x, f) is the product of the distinct linear factors of
    f, and Cantor-Zassenhaus splits it: gcd((x + delta)^((p-1)/2) - 1, h)
    is a proper factor of h for some delta in F_p (Cohen, A Course in
    Computational Algebraic Number Theory, 1.6 and 3.4).  delta runs
    through 0, 1, 2, ... so the result does not depend on any random
    state.  Each round takes one power s, modulo the product of the
    factors still pending, and splits every pending h by gcd(s - 1, h),
    which is gcd((s mod h) - 1, h) since h divides that product.
    """
    g = poly_gcd(f, poly_sub(poly_powmod([0, 1], p, f, p), [0, 1], p), p)
    roots = []
    pending = [g]
    delta = 0
    while True:
        roots += [-h[0] % p for h in pending if len(h) == 2]
        pending = [h for h in pending if len(h) > 2]
        if not pending:
            return sorted(roots)
        if p == 2:
            return sorted(roots + [0, 1])  # the pending factor is x^2 + x
        product = [1]
        for h in pending:
            product = poly_mul(product, h, p)
        s = poly_powmod([delta, 1], (p - 1) // 2, product, p)
        split = []
        for h in pending:
            k = poly_gcd(h, poly_sub(s, [1], p), p)
            split += [k, poly_divmod(h, k, p)[0]] if 1 < len(k) < len(h) else [h]
        pending = split
        delta += 1
