"""Numerical tolerances, in one place.

These module constants are the only tolerance policy: every check reads
its constant from here when it runs, and no function takes a tolerance as
an argument.  A residual cached with its result (pi, the fundamental
matrix) is checked against the constant again on every call, so lowering a
constant (as tests do, with ``monkeypatch.setattr``) takes effect at
once.  Scaled tolerances note their scale factor in the comment.
"""

ROW_SUM_TOL = 1e-12
"""|row sum - 1| allowed for a stochastic matrix."""

STATIONARY_RESIDUAL_TOL = 1e-10
"""||pi' P - pi'||_inf allowed after the stationary-distribution solve."""

REVERSIBILITY_RTOL = 1e-10
"""Detailed-balance check, relative to max_ij pi_i P_ij."""

SYMMETRY_RTOL = 1e-12
"""Matrix-symmetry check (transition matrices, full noise covariances),
relative to max(1, max |entry|)."""

HITTING_RESIDUAL_TOL = 1e-9
"""Hitting-time defining-equation residual, scaled by n."""

RANDOM_TARGET_TOL = 1e-9
"""Start-independence of sum_j pi_j H(i -> j), scaled by (1 + K)."""

UNIT_EIGENVALUE_TOL = 1e-8
"""Distance from 1 allowed for the unit eigenvalue of an irreducible chain
before its spectrum is declared unusable."""

SPECTRAL_IMAG_TOL = 1e-9
"""Imaginary residue allowed when summing a (possibly complex) spectrum."""

PSD_SHIFT_SCALE = 1e-12
"""Shifted-Cholesky PSD test: the shift is PSD_SHIFT_SCALE * trace / n."""

NO_CONTRACTION_RHO = 1.0 - 1e-12
"""rho(P - 1 pi') at or above this means no contraction: the noisy
recursion has no steady state."""

ORACLE_TOL = 1e-12
"""Stopping tolerance of the covariance doubling: the last squaring's
update, scaled by (1 + max |S|)."""

J_IDENTITY_TOL = 1e-12
"""Largest violation of the J = 1 pi' projector identities accepted by
JPropertyReport.ok."""

EDGE_VALUE_ATOL = 1e-12
"""Absolute agreement required of two entries given for the same formation
edge (offsets after the antisymmetry flip, or weights)."""

CONSISTENCY_TOL = 1e-9
"""Max over a formation's edges of |p_j - p_i - r_ij|, positions walked out
along a spanning tree, for it to be declared consistent: each cycle's
closure defect, counted in full on the cycle's edge off the tree."""

SELFTEST_EXACT_TOL = 1e-12
"""``selftest``: absolute error allowed of a value known exactly (delta_ss
of the two-node chain, Form of two agents at unit offset)."""

SELFTEST_AGREEMENT_RTOL = 1e-9
"""``selftest``: spread of the four delta_ss formulas, relative to the
largest."""

SELFTEST_ORACLE_RTOL = 1e-8
"""``selftest``: |theorem - oracle| for delta_ss, scaled by (1 + oracle)."""

SELFTEST_IDENTITY_TOL = 1e-10
"""``selftest``: violation allowed of an identity of the steady state
(tr Sigma_hat = delta_ss, scaled by (1 + delta_ss); J Sigma_hat = 0; Form
read off delta_ss)."""
