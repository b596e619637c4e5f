"""Test oracles that the package does not ship."""


def det_cofactor(matrix):
    """Naive cofactor expansion; exponential, intended as a test oracle (dim <= 8)."""
    size = len(matrix)
    ring = matrix[0][0].ring
    if size == 1:
        return matrix[0][0]
    total = ring.zero()
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sub = det_cofactor(minor)
        term = entry * sub
        total = total + (term if j % 2 == 0 else -term)
    return total
