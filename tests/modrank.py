"""A rank mod p for the tests, by textbook Gauss-Jordan elimination.

It is written apart from linalg.eliminate_mod_p, which the modular
filter, the intersection counts and verify cyclotomic all run on, so
that kernel is checked against separate code: pivots are found column
by column with row swaps, inverted by Fermat's little theorem, and
cleared from every other row."""


def rank_mod_p(rows, p):
    """The rank modulo the prime p of a matrix of integers."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                f = row[col] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(row, mat[rank])]
        rank += 1
    return rank
