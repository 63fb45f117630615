"""The mutants that the second routes of flagforms must kill.

Each entry is (id, file, old text, new text, test ids).  The file is
relative to the repository root, the old text occurs in it exactly once,
and applying the mutant replaces it with the new text.  Every named test
must then fail; ``mutants/run.py`` checks that they do.  A change that adds
a second route adds its mutants here.
"""

FLAGNUM = "src/flagforms/flagnum.py"
GYSIN = "src/flagforms/gysin.py"
CHARPOLY = "src/flagforms/charpoly.py"
TESTS = "tests/test_flagnum.py::"
GYSIN_TESTS = "tests/test_gysin.py::"
CHARPOLY_TESTS = "tests/test_charpoly.py::"

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
    # the integrand on slices of a chunk: every sample once, and the
    # Hermitian defect of the whole chunk
    (
        "monte-carlo-slices-drop-the-partial-one",
        FLAGNUM,
        "            parts = [integrand(g[:, :, i : i + _MC_SLICE]) for i in range(0, count, _MC_SLICE)]\n",
        "            parts = [integrand(g[:, :, i : i + _MC_SLICE]) for i in range(0, count - count % _MC_SLICE, _MC_SLICE)]\n",
        [TESTS + "test_slicing_a_chunk_changes_no_bit"],
    ),
    (
        "hermitian-defect-per-slice",
        FLAGNUM,
        "            hermitian.append(_hermitian_gap(coeffs))\n",
        "            hermitian.append((_hermitian_defect(coeffs), 1.0))\n",
        [TESTS + "test_slicing_a_chunk_changes_no_bit"],
    ),
    # the one metric kernel: the plain metric of the stencils and the
    # metric functions, and the values under the jets
    (
        "metric-kernel-without-delta",
        FLAGNUM,
        "        W[0][:] -= _dot(_delta(C, z), W[0])\n",
        "        pass\n",
        [TESTS + "test_metric_kernel_matches_the_solve_reference", TESTS + "test_audit_matches_the_solve_based_metric_route"],
    ),
    (
        "metric-kernel-without-schur-correction",
        FLAGNUM,
        "        H = tuple(a - b for a, b in zip(A, BXBh))\n",
        "        pass\n",
        [TESTS + "test_metric_kernel_matches_the_solve_reference"],
    ),
    (
        "metric-kernel-without-nan-mask",
        FLAGNUM,
        "    H = H if finite.all() else tuple(np.where(finite, x, np.nan) for x in H)\n",
        "    pass\n",
        [TESTS + "test_metric_kernel_is_nan_where_the_gram_matrix_is_not_finite"],
    ),
    # the center formula against its oracles: the exact coefficients
    # against the stencils
    (
        "base-coeffs-transposed",
        FLAGNUM,
        "    M = [[_dot(W, _dot(c[..., None], X)) for c in row] for row in C.coeffs]\n",
        "    M = [[_dot(W, _dot(c.T[..., None], X)) for c in row] for row in C.coeffs]\n",
        [TESTS + "test_exact_coefficients_match_finite_differences_every_bundle"],
    ),
    # the block Schur push against the monomial push and the paper's identity
    (
        "block-schur-lambda-increasing",
        GYSIN,
        "            row = tuple(map(sub, chain.from_iterable(lam for lam, _ in combo), offsets))\n",
        "            row = tuple(map(sub, chain.from_iterable(lam[::-1] for lam, _ in combo), offsets))\n",
        [GYSIN_TESTS + "test_block_schur_push_equals_the_monomial_push", GYSIN_TESTS + "test_dp_rank4_identity"],
    ),
    # the monomial push against the tuple loop
    (
        "monomial-push-keeps-repeated-rows",
        GYSIN,
        "        if len(set(row)) == r:\n            rows[row] = num\n",
        "        rows[row] = num\n",
        [GYSIN_TESTS + "test_push_from_packed_exponents_equals_the_tuple_loop"],
    ),
    # the wedge plan against the term loop
    (
        "wedge-plan-without-odd-degree-sign",
        "src/flagforms/formlab.py",
        "    odd = _parity((s1 & below[:, 0]) ^ (t1 & below[:, 1])) ^ (_parity(t1) & _parity(s2))\n",
        "    odd = _parity((s1 & below[:, 0]) ^ (t1 & below[:, 1]))\n",
        [
            "tests/test_formlab.py::test_plan_wedge_equals_the_loop_bit_for_bit",
            "tests/test_formlab.py::test_forms_with_arrays_take_the_loop_mixed_with_numbers",
        ],
    ),
    # the polynomial product against the tuple-key reference product
    (
        "product-without-gcd-reduction",
        CHARPOLY,
        "            common = gcd(den, *nums)\n",
        "            common = 1\n",
        [
            CHARPOLY_TESTS + "test_products_equal_the_dict_building_product",
            CHARPOLY_TESTS + "test_product_chains_equal_the_dict_building_product",
        ],
    ),
    (
        "product-keeps-cancelled-sums",
        CHARPOLY,
        "                if new:\n                    acc[e] = new\n                else:\n                    del acc[e]\n",
        "                acc[e] = new\n",
        [
            CHARPOLY_TESTS + "test_product_chains_equal_the_dict_building_product",
            "tests/test_properties.py::test_product_of_cancelling_factors_keeps_the_reference_order",
        ],
    ),
    # schur on tall partitions against the padded Chern determinant
    (
        "schur-segre-branch-without-sign",
        CHARPOLY,
        "        return -result if sum(parts) & 1 else result\n",
        "        return result\n",
        [
            CHARPOLY_TESTS + "test_gen_schur_equals_the_segre_determinant_at_the_smaller_size",
            CHARPOLY_TESTS + "test_schur_equals_the_padded_determinant",
        ],
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
