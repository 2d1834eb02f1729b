"""Every cell of a row of windows, by a running sum of its own, shared by
the faithfulness and Cantor tests as the reference for the block walk."""

from qinfty.rigor import ipow


def every_cell(spec, k, alpha, expo, m_min, m_max):
    """Cells (M, lhs, rhs) of the windows [k, k+M] for m_min <= M <= m_max:
    lhs encloses (sum q_i)^expo and rhs sum q_i^alpha, each sum adding one
    term per step in the order the library adds them, so the same bits."""
    mass, rhs = spec.range_sum(k, k + m_min), spec.power_sum(alpha, k, k + m_min)
    for M in range(m_min, m_max + 1):
        if M > m_min:
            mass = mass + spec.q(k + M)
            rhs = rhs + ipow(spec.q(k + M), alpha)
        yield M, ipow(mass, expo), rhs
