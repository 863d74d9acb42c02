"""Polynomials over F_p for a prime p, and their roots.

Polynomials are int coefficient lists reduced mod p, constant term
first, with trailing zeros trimmed ([] is the zero polynomial).  Finding
roots costs powers of x + delta modulo f; each is taken as a power of x
by _Modulus, which squares by packing coefficients into one big int.
"""

import struct


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


class _Modulus:
    """Powers of x modulo a monic f of degree n >= 1 over F_p, on residues
    kept as n coefficients in [0, p), constant term first, zero-padded.

    A square is one big-int product (Kronecker substitution; von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4): the coefficients
    are packed into slots of whole 64-bit words, and the slots of the
    product hold the 2n - 1 coefficients of the square.  Multiplying by
    x shifts them by one slot.  The slots from n up are read back,
    reduced mod p and multiplied into the packed rows of x^k mod f,
    n <= k < 2n, and their sum is added to the low n slots as they are.
    A slot of the square holds less than n p^2, and of the sum less than
    2n p^2, so slots of at least 2 b(p) + b(2n) bits, b the bit length,
    never carry into the next.  Slots of one word (p below 2^30 and n
    below 8, as for the filter primes of a sextic) are packed and read
    back by struct in one call.
    """

    def __init__(self, f, p):
        n = self.n = len(f) - 1
        self.p = p
        words = -(-(2 * p.bit_length() + (2 * n).bit_length()) // 64)  # per slot
        self.slot_bits, self.low_bits = 64 * words, 64 * words * n
        self.slots = struct.Struct(f"<{n}Q") if words == 1 else None
        self.table = []
        tail = row = [-c % p for c in f[:-1]]  # x^n mod f
        for _ in range(n):
            self.table.append(self._pack(row))
            row = [(b + row[-1] * t) % p for b, t in zip([0, *row[:-1]], tail)]

    def _pack(self, a):
        if self.slots:
            return int.from_bytes(self.slots.pack(*a), "little")
        width = self.slot_bits // 8
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")

    def _unpack(self, packed):
        """The n slots of a packed value below 2^low_bits."""
        data = packed.to_bytes(self.low_bits // 8, "little")
        if self.slots:
            return self.slots.unpack(data)
        width = self.slot_bits // 8
        return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]

    def square(self, a, times_x=False):
        """a^2, or a^2 x."""
        p, low_bits = self.p, self.low_bits
        square = self._pack(a) ** 2 << (self.slot_bits if times_x else 0)
        high = self._unpack(square >> low_bits)
        reduced = (square & ((1 << low_bits) - 1)) + sum(
            [c % p * row for c, row in zip(high, self.table)])
        return [c % p for c in self._unpack(reduced)]

    def power(self, e):
        """x^e, left to right: one square per bit of e, times x at each
        set bit."""
        a = [1] + [0] * (self.n - 1)
        for bit in format(e, "b"):
            a = self.square(a, bit == "1")
        return a


def _taylor_shift(a, delta, p):
    """a(x + delta), by Horner's rule."""
    out = []
    for c in reversed(a):
        out = [(u + delta * v) % p for u, v in zip([c, *out], [*out, 0])]
    return poly_trim(out)


def _linear_power(delta, e, f, p):
    """(x + delta)^e modulo a monic f.  With y = x + delta it is y^e
    modulo f(y - delta), taken by _Modulus, with y then put back as
    x + delta."""
    return _taylor_shift(_Modulus(_taylor_shift(f, -delta, p), p).power(e), delta, p)


def poly_roots(f, p):
    """The distinct roots in F_p of a monic f of positive degree, sorted.

    For p = 2, f is evaluated at 0 and 1.  For odd p, s = x^((p-1)/2) mod
    f is taken once, and x^p = x s^2 mod f gives g = gcd(x^p - x, f), the
    product of the distinct linear factors of f.  Cantor-Zassenhaus
    splits g: gcd((x + delta)^((p-1)/2) - 1, h) is a proper factor of h
    for some delta in F_p (Cohen, A Course in Computational Algebraic
    Number Theory, 1.6 and 3.4; von zur Gathen and Gerhard, Modern
    Computer Algebra, 14.3).  delta runs through 0, 1, 2, ... so the
    result does not depend on any random state.  Each round takes one
    power s and splits every pending factor h by gcd(s - 1, h), which is
    gcd((s mod h) - 1, h) since h divides the modulus of s.  The power
    for delta = 0 is the s above, modulo f; later rounds take theirs
    modulo the product of the factors still pending.
    """
    if p == 2:
        return [x for x, v in ((0, f[0]), (1, sum(f))) if v % 2 == 0]
    half = (p - 1) // 2
    ring = _Modulus(f, p)
    s = ring.power(half)
    g = poly_gcd(f, poly_sub(poly_trim(ring.square(s, True)), [0, 1], p), p)
    s = poly_trim(s)
    roots = []
    pending = [g]
    delta = 0
    while True:
        roots += [-h[0] % p for h in pending if len(h) == 2]
        pending = [h for h in pending if len(h) > 2]
        if not pending:
            return sorted(roots)
        if delta:
            product = [1]
            for h in pending:
                product = poly_mul(product, h, p)
            s = _linear_power(delta, half, product, p)
        split = []
        for h in pending:
            k = poly_gcd(h, poly_sub(s, [1], p), p)
            split += [k, poly_divmod(h, k, p)[0]] if 1 < len(k) < len(h) else [h]
        pending = split
        delta += 1
