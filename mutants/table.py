"""The mutants that the second routes of flagforms must kill.

Each entry is (id, file, old text, new text, test ids).  The file is
relative to the repository root, the old text occurs in it exactly once,
and applying the mutant replaces it with the new text.  Every named test
must then fail; ``mutants/run.py`` checks that they do.  A change that adds
a second route adds its mutants here.
"""

FLAGNUM = "src/flagforms/flagnum.py"
TESTS = "tests/test_flagnum.py::"

MUTANTS = [
    # the jets of the metric, the audit's route
    (
        "jet-inverse-without-cross-terms",
        FLAGNUM,
        "    return X, Xd, Xe, -_dot(X1[:, :, None], _dot(s, X1[:, :, None]) + cross)\n",
        "    return X, Xd, Xe, -_dot(X1[:, :, None], _dot(s, X1[:, :, None]))\n",
        [TESTS + "test_jets_match_the_exact_coefficients"],
    ),
    (
        "jet-conjugation-keeps-d-and-dbar",
        FLAGNUM,
        "    return np.conj(v), np.conj(e), np.conj(d), np.conj(np.swapaxes(s, 2, 3))\n",
        "    return np.conj(v), np.conj(d), np.conj(e), np.conj(np.swapaxes(s, 2, 3))\n",
        [TESTS + "test_jets_match_the_exact_coefficients"],
    ),
    (
        "jet-metric-without-delta",
        FLAGNUM,
        "        W[3][:, :, :n, :n] -= _dot(c, W[0][:, :, None, None])\n",
        "        pass\n",
        [TESTS + "test_jets_at_the_center_are_the_center_formula"],
    ),
    # the Monte Carlo integrand: only degree 0 may skip the rotations
    (
        "constant-integrand-at-degree-one",
        FLAGNUM,
        "        if k:\n            rng = np.random.Generator(\n",
        "        if k > 1:\n            rng = np.random.Generator(\n",
        [TESTS + "test_degree_zero_integrands_draw_no_rotation"],
    ),
    # the dense metric kernel, the stencils' route
    (
        "metric-kernel-without-delta",
        FLAGNUM,
        "        W -= _dot(delta, W)\n",
        "        pass\n",
        [TESTS + "test_metric_kernel_matches_the_solve_reference", TESTS + "test_audit_matches_the_solve_based_metric_route"],
    ),
    (
        "metric-kernel-without-schur-correction",
        FLAGNUM,
        "    H = A - _dot(_dot(B, _inverse(G[rk:, rk:])), _herm_t(B)) if s_idx else A\n",
        "    H = A\n",
        [TESTS + "test_metric_kernel_matches_the_solve_reference"],
    ),
    (
        "metric-kernel-without-nan-mask",
        FLAGNUM,
        "    return H if finite.all() else np.where(finite, H, np.nan)\n",
        "    return H\n",
        [TESTS + "test_metric_kernel_is_nan_where_the_gram_matrix_is_not_finite"],
    ),
]

#: a mutant that changes nothing the tests can see, planted by
#: ``run.py --noop`` to show that a survivor fails the run
NOOP = (
    "planted-no-op",
    FLAGNUM,
    "AUDIT_TOL = 1e-6\n",
    "AUDIT_TOL = 1e-6  # planted no-op\n",
    [TESTS + "test_degree_zero_integrands_draw_no_rotation"],
)
