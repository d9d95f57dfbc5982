import math
import re
import warnings

import numpy as np
import pytest
from conftest import random_density_matrix
from reference import check_uu_invariance, partial_transpose, random_unitary_2x2, unit_vector

import bellri.states
from bellri import (
    DomainError,
    McEstimate,
    build_model,
    compute_tensor,
    critical_visibility,
    estimate_correlation,
    make_singlet,
    make_werner,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    mc_report,
    validate_density_matrix,
    verdict_sweep,
)
from bellri.cli import RunConfig
from bellri.states import EIGENVALUE_FLOOR, _whole, eigvalsh_lo, require_unitary
from bellri.tensor import as_tensor, rotate_tensor, rotation_from_unitary, validate_rotation


class TestSinglet:
    def test_entries(self):
        # in basis (++, +-, -+, --): the inner 2x2 block is [[1/2, -1/2], [-1/2, 1/2]]
        p = make_singlet()
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.max(np.abs(p - expected)) == 0.0

    def test_trace_one(self):
        assert abs(np.trace(make_singlet()) - 1.0) <= 1e-15

    def test_purity_one(self):
        p = make_singlet()
        assert abs(np.trace(p @ p) - 1.0) <= 1e-15


class TestWerner:
    def test_endpoints(self):
        assert np.max(np.abs(make_werner(1.0) - make_singlet())) == 0.0
        assert np.max(np.abs(make_werner(0.0) - np.eye(4) / 4.0)) == 0.0

    def test_half_visibility_eigenvalues(self):
        # (1 + 3v)/4 on the singlet, (1 - v)/4 threefold: frozen at v = 0.5
        evals = np.sort(np.linalg.eigvalsh(make_werner(0.5)))
        assert np.allclose(evals, [0.125, 0.125, 0.125, 0.625], atol=1e-14)

    @pytest.mark.parametrize("v", [0.0, 0.2, 1.0 / 3.0, 0.5, 1.0])
    def test_partial_transpose_turns_negative_above_one_third(self, v):
        # Peres-Horodecki: the noisy singlet is entangled iff its partial transpose
        # has a negative eigenvalue; the lowest is (1 - 3v)/4, negative above v = 1/3
        lowest = np.linalg.eigvalsh(partial_transpose(make_werner(v)))[0]
        assert abs(lowest - (1.0 - 3.0 * v) / 4.0) <= 1e-12

    @pytest.mark.parametrize(
        "v", [-0.1, 1.1, math.nan, None, "x", 1j, pytest.param(10**400, id="huge-int")]
    )
    def test_rejects_bad_visibility(self, v):
        with pytest.raises(DomainError, match="visibility"):
            make_werner(v)

    @pytest.mark.parametrize("v", np.linspace(0.0, 1.0, 21).tolist())
    def test_valid_density_matrix_across_range(self, v):
        validate_density_matrix(make_werner(v))

    def test_affine_in_v(self):
        hi, lo = make_werner(1.0), make_werner(0.0)
        for v in np.linspace(0.0, 1.0, 11):
            direct = make_werner(v)
            mixed = v * hi + (1.0 - v) * lo
            assert np.max(np.abs(direct - mixed)) <= 1e-15


class TestEndpoints:
    """The singlet and white noise that every noisy singlet mixes."""

    def test_module_constants_are_read_only(self):
        for m in (bellri.states._SINGLET, bellri.states._MIXED):
            assert not m.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0

    def test_builders_return_fresh_writable_arrays(self):
        want = make_werner(0.3)
        for build in (make_singlet, maximally_mixed, lambda: make_werner(0.3)):
            m = build()
            assert m.flags.writeable and not np.shares_memory(m, build())
            m[...] = 7.0
        assert make_werner(0.3).tobytes() == want.tobytes()

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.75, 1.0 / 3.0, 1.0])
    def test_werner_has_the_bits_of_the_two_products_summed(self, v):
        assert make_werner(v).tobytes() == (v * make_singlet() + (1.0 - v) * maximally_mixed()).tobytes()


class TestValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            validate_density_matrix(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(DomainError, match="Hermitian"):
            validate_density_matrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError, match="trace"):
            validate_density_matrix(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.25, math.nan), math.inf])
    def test_rejects_non_finite(self, bad):
        m = make_werner(0.5)
        m[0, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            validate_density_matrix(m)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({k: 1.7e308 for k in range(16)}, r"matrix trace inf\+0j differs from 1"),
            ({1: 1.7e308, 4: -1.7e308}, r"not Hermitian: max \|M - M\^dag\| = inf"),
            ({1: 1.7e308 + 1.7e308j, 4: -1.7e308 + 1.7e308j}, r"not Hermitian: .* = inf"),
        ],
        ids=["trace", "hermitian", "hermitian-complex"],
    )
    def test_huge_finite_entries_fail_without_a_warning(self, entries, message):
        # numpy's overflow warning used to come first, and escaped in place of the error
        m = np.zeros(16, dtype=complex)
        for k, z in entries.items():
            m[k] = z
        payload = {"rows": 4, "cols": 4, "entries": [[z.real, z.imag] for z in m]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (m.reshape(4, 4), matrix_from_json(payload)):
                with pytest.raises(DomainError, match=message):
                    validate_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(DomainError, match="positive semidefinite"):
            validate_density_matrix(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_rejection_names_the_lowest_eigenvalue(self, seed):
        # a random Hermitian matrix of trace 1 with eigenvalues spread around zero
        rng = np.random.default_rng([seed, 23])
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2.0
        m = h + (1.0 - np.trace(h).real) / 4.0 * np.eye(4)
        lowest = np.linalg.eigvalsh(m).min()
        assert lowest < -0.01
        with pytest.raises(DomainError, match=re.escape(f"min eigenvalue = {lowest:.3e}")):
            validate_density_matrix(m)


def density_matrix_with_lowest(rng, lowest):
    """A seeded 4x4 Hermitian matrix of trace 1 whose lowest eigenvalue is ``lowest``."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    rest = rng.uniform(0.1, 1.0, 3)
    p = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    m = (q * p) @ q.conj().T
    return (m + m.conj().T) / 2.0


def state_stacks(rng):
    """Seeded 100-matrix stacks of 4x4 complex density matrices: mixed, pure and at the floor."""
    pure = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    pure /= np.linalg.norm(pure, axis=1, keepdims=True)
    edge = [EIGENVALUE_FLOOR + d for d in (-1e-13, -3e-14, -1e-14, 1e-14, 3e-14, 1e-13)]
    return {
        "mixed": np.array([random_density_matrix(rng) for _ in range(100)]),
        "pure": pure[:, :, None] * pure[:, None, :].conj(),
        "floor": np.array([density_matrix_with_lowest(rng, edge[k % 6]) for k in range(96)]),
    }


class TestEigvalshBinding:
    """The state check's direct gufunc binding gives the bits of np.linalg.eigvalsh."""

    @pytest.mark.parametrize("kind", ["mixed", "pure", "floor"])
    def test_density_matrices_have_the_bits_of_numpy_linalg(self, kind):
        ms = state_stacks(np.random.default_rng(24))[kind]
        want = np.linalg.eigvalsh(ms)
        for got in (eigvalsh_lo(ms), np.array([eigvalsh_lo(m) for m in ms])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_verdicts_on_either_side_of_the_floor(self):
        rng = np.random.default_rng(25)
        for k, d in enumerate((-1e-13, -3e-14, -1e-14, 1e-14, 3e-14, 1e-13) * 10):
            m = density_matrix_with_lowest(rng, EIGENVALUE_FLOOR + d)
            lowest = np.linalg.eigvalsh(m)[0]
            assert (lowest >= EIGENVALUE_FLOOR) == (d > 0), k  # the case probes its side
            if d > 0:
                assert validate_density_matrix(m) is not None
            else:
                with pytest.raises(DomainError, match=re.escape(f"= {lowest:.3e}")):
                    validate_density_matrix(m)

    @pytest.mark.parametrize(
        "call", [validate_density_matrix, compute_tensor], ids=lambda f: f.__name__
    )
    def test_non_convergence_is_a_linalg_error(self, monkeypatch, call):
        # the gufunc reports LAPACK's non-convergence as NaN, which no comparison rejects
        monkeypatch.setattr(bellri.states, "eigvalsh_lo", lambda m: np.full(4, np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call(make_werner(0.5))


class TestRandomUnitary:
    def test_deterministic(self):
        assert np.array_equal(random_unitary_2x2(42), random_unitary_2x2(42))

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_and_unimodular(self, seed):
        u = random_unitary_2x2(seed)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12

    def test_seeds_differ(self):
        assert not np.allclose(random_unitary_2x2(0), random_unitary_2x2(1))


class TestRequireUnitary:
    @pytest.mark.parametrize("seed", range(10))
    def test_reported_defect_is_numpys(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        defect = np.abs(u.conj().T @ u - np.eye(2)).max()
        with pytest.raises(DomainError, match=re.escape(f"max |U^dag U - I| = {defect:.3e}")):
            require_unitary(u)

    @pytest.mark.parametrize("delta, accepted", [(0.45e-12, True), (0.55e-12, False)])
    def test_tolerance_edge(self, delta, accepted):
        # (1 + delta) U has U^dag U - I = (2 delta + delta^2) I
        u = random_unitary_2x2(4) * (1.0 + delta)
        if accepted:
            assert require_unitary(u) is u
            # and so is the rotation it induces, whose R^T R - I is near 4 delta
            r = rotation_from_unitary(u)
            assert np.array_equal(rotate_tensor(np.eye(3), r, np.eye(3)), r)
        else:
            with pytest.raises(DomainError, match="not unitary"):
                require_unitary(u)

    @pytest.mark.parametrize(
        "u",
        [np.full((2, 2), 1e200 + 0j), np.full((2, 2), 1e200 + 1e200j), [[1e200, 1e200], [1e200, -1e200]]],
        ids=["real", "complex", "inf-minus-inf"],
    )
    def test_huge_entries_are_one_error_and_no_warning(self, u):
        # one DomainError and no numpy overflow warning (an error under this
        # suite's filterwarnings); an inf - inf must not read NaN, which would
        # pass the tolerance test
        with pytest.raises(DomainError, match=re.escape("not unitary: max |U^dag U - I| = inf")):
            require_unitary(u)


class TestUuInvariance:
    def test_identity_conjugation(self):
        assert check_uu_invariance(make_werner(0.7), np.eye(2), 1e-12)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7, 1.0])
    def test_werner_invariant_under_any_uu(self, seed, v):
        assert check_uu_invariance(make_werner(v), random_unitary_2x2(seed), 1e-10)

    def test_product_state_not_invariant(self):
        # |++><++| rotated by 90 degrees about the y axis moves off itself
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        big = np.kron(u, u)
        conjugated = big.conj().T @ rho @ big
        assert np.max(np.abs(conjugated - rho)) > 0.1  # oracle: it really moved
        assert not check_uu_invariance(rho, u, 1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError, match="unitary"):
            check_uu_invariance(make_werner(0.5), np.ones((2, 2)), 1e-10)

    def test_rejects_nan_unitary(self):
        with pytest.raises(DomainError, match="non-finite"):
            check_uu_invariance(make_werner(0.5), np.full((2, 2), math.nan), 1e-10)


class TestJsonCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_density_matrix(rng)
        payload = matrix_to_json(m)
        assert payload["rows"] == 4 and payload["cols"] == 4
        assert len(payload["entries"]) == 16
        back = matrix_from_json(payload)
        assert np.max(np.abs(back - m)) == 0.0

    def test_round_trip_non_square(self):
        u = random_unitary_2x2(3)
        assert np.array_equal(matrix_from_json(matrix_to_json(u)), u)

    @pytest.mark.parametrize("shape, field", [((0, 0), "rows"), ((1, 0), "cols"), ((0, 3), "rows")])
    def test_encoder_rejects_what_the_decoder_rejects(self, shape, field):
        # an empty matrix has no payload the decoder takes back
        with pytest.raises(DomainError, match=re.escape(f"at least 1, got shape {shape}")):
            matrix_to_json(np.zeros(shape))
        payload = {"rows": shape[0], "cols": shape[1], "entries": []}
        with pytest.raises(DomainError, match=f"{field} must be at least 1, got 0"):
            matrix_from_json(payload)

    def test_rejects_entry_count_mismatch(self):
        with pytest.raises(DomainError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_flat_entries(self):
        with pytest.raises(DomainError, match=r"entry 0 must be a \[re, im\] pair"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]})

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_rejects_infinite_dimension(self, field, bad):
        # json.loads reads Infinity and 1e400 as float inf, which int() cannot take
        payload = {"rows": 4, "cols": 4, "entries": []}
        payload[field] = bad
        with pytest.raises(DomainError, match="malformed matrix payload"):
            matrix_from_json(payload)

    @pytest.mark.parametrize(
        "field, bad",
        [
            pytest.param(field, bad, id=field + suffix)
            for bad, suffix in [(2.9, ""), (0, "-zero"), (-1, "-negative")]
            for field in ["rows", "cols"]
        ],
    )
    def test_rejects_fractional_dimension(self, field, bad):
        # and whole dimensions below 1
        payload = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        payload[field] = bad
        with pytest.raises(DomainError, match=f"malformed matrix payload: {field} must be"):
            matrix_from_json(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", [0, 1])
    def test_rejects_non_finite_entry(self, bad, part):
        entries = [[1, 0], [0, 0], [0, 0], [1, 0]]
        entries[2][part] = bad
        with pytest.raises(DomainError, match="non-finite"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": entries})

    def test_accepts_whole_dimension_of_any_type(self):
        entries = [[1, 0], [0, 0], [0, 0], [1, 0]]
        for rows in (2, 2.0, "2", np.int64(2)):
            m = matrix_from_json({"rows": rows, "cols": 2, "entries": entries})
            assert np.array_equal(m, np.eye(2))

    def test_rejects_missing_field(self):
        with pytest.raises(DomainError):
            matrix_from_json({"rows": 2, "cols": 2})

    @pytest.mark.parametrize(
        "payload",
        [np.zeros(3), np.zeros((4, 4)), np.zeros(3, dtype=[("cols", int)])],
        ids=["vector", "matrix", "record-array"],
    )
    def test_rejects_an_ndarray_payload(self, payload):
        with pytest.raises(DomainError, match="^malformed matrix payload: "):
            matrix_from_json(payload)

    def test_rejects_entries_that_are_not_a_list(self):
        with pytest.raises(DomainError, match="malformed matrix payload"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": 5})

    def test_white_noise_round_trip(self):
        w = maximally_mixed()
        assert np.array_equal(matrix_from_json(matrix_to_json(w)), w)


class TestConverters:
    @pytest.mark.parametrize(
        "convert",
        [validate_density_matrix, require_unitary, unit_vector, as_tensor, validate_rotation],
    )
    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 2.0], [3.0]],
            "abc",
            [[1j] * 3] * 3,
            [[10**400] * 3] * 3,
            np.eye(3) * (1 + 5j),
        ],
        ids=["ragged", "string", "complex", "huge-int", "complex-ndarray"],
    )
    def test_unconvertible_input_is_a_validation_error(self, convert, bad):
        # complex input fails the conversion to float, or the shape check
        # of the complex 4x4 and 2x2 converters
        with pytest.raises(DomainError):
            convert(bad)

    @pytest.mark.parametrize("convert", [as_tensor, validate_rotation])
    @pytest.mark.parametrize("imag", [5.0, 1e-3, 0.0])
    def test_complex_ndarray_is_not_cast_to_real(self, convert, imag):
        with pytest.raises(DomainError, match="imaginary part"):
            convert(np.eye(3) * (1 + imag * 1j))

    def test_real_input_of_any_numeric_dtype_converts(self):
        expected = np.eye(3)
        for x in (np.eye(3, dtype=np.float32), np.eye(3, dtype=int), np.eye(3).tolist()):
            a = as_tensor(x)
            assert a.dtype == np.float64 and np.array_equal(a, expected)
        m = validate_density_matrix(np.eye(4) / 4.0)
        assert m.dtype == np.complex128 and np.array_equal(m, np.eye(4) / 4.0)

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 2.0], [3.0]],
            "abc",
            [[10**400] * 2] * 2,
            [1.0, 0.0],
            [[math.nan, 0.0]],
            [[0.0, complex(0.0, math.inf)]],
        ],
        ids=["ragged", "string", "huge-int", "1-d", "nan", "inf"],
    )
    def test_matrix_to_json_rejects_unconvertible_or_non_finite(self, bad):
        # json.dumps would write NaN and inf as the non-JSON tokens NaN and Infinity
        with pytest.raises(DomainError):
            matrix_to_json(bad)


# each range-checked scalar argument: the name its DomainError reports, a
# public call taking the bad value there, and one finite value out of its range
SCALAR_ARGUMENTS = [
    pytest.param("visibility", make_werner, 1.5, id="visibility"),
    pytest.param("visibility v_min", lambda x: verdict_sweep(x, 1.0, 3), -0.5, id="v_min"),
    pytest.param("visibility v_max", lambda x: verdict_sweep(0.0, x, 3), -0.5, id="v_max"),
    pytest.param(
        "axis index i", lambda x: estimate_correlation(build_model(0.5), x, 1, 1000, 0), 4, id="i"
    ),
    pytest.param(
        "axis index j",
        lambda x: mc_report(build_model(0.5), 1, x, McEstimate(0.0, 0.1, 1000)),
        0,
        id="j",
    ),
    pytest.param(
        "sample count n", lambda x: estimate_correlation(build_model(0.5), 1, 1, x, 0), 999, id="n"
    ),
    pytest.param(
        "seed", lambda x: estimate_correlation(build_model(0.5), 1, 1, 1000, x), -1, id="seed"
    ),
    pytest.param("step count steps", lambda x: verdict_sweep(0.0, 1.0, x), 0, id="steps"),
    pytest.param(
        "rows", lambda x: matrix_from_json({"rows": x, "cols": 1, "entries": []}), 0, id="rows"
    ),
    pytest.param(
        "cols", lambda x: matrix_from_json({"rows": 1, "cols": x, "entries": []}), -1, id="cols"
    ),
    pytest.param(
        "tolerance",
        lambda x: critical_visibility(make_singlet(), maximally_mixed(), x),
        0.0,
        id="tolerance",
    ),
    pytest.param("tol", lambda x: RunConfig(tol=x), -1e-9, id="config-tol"),
    pytest.param("seed", lambda x: RunConfig(seed=x), -5, id="config-seed"),
]


class TestScalarRanges:
    @pytest.mark.parametrize("name, call, out_of_range", SCALAR_ARGUMENTS)
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "out-of-range", "x"])
    def test_bad_value_is_a_domain_error_naming_the_argument(self, name, call, out_of_range, bad):
        x = out_of_range if bad == "out-of-range" else bad if bad == "x" else float(bad)
        with pytest.raises(DomainError, match=re.escape(name) + " must be"):
            call(x)


class TestWholeText:
    @pytest.mark.parametrize("text, value", [("3.0", 3), ("1e3", 1000), (" 7 ", 7)])
    def test_numeric_text_converts(self, text, value):
        assert _whole(text, "seed", 0) == value

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.5", "seed must be a finite whole number, got '1.5'"),
            ("nan", "seed must be a finite whole number, got 'nan'"),
            ("x", "seed must be a whole number, got 'x'"),
        ],
    )
    def test_other_text_keeps_its_message(self, text, message):
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            _whole(text, "seed", 0)

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_digits_above_2_to_the_53_convert_exactly(self, sign):
        # a float holds 2^53 + 1 as 2^53
        assert _whole(f" {sign}9007199254740993", "seed") == int(f"{sign}9007199254740993")

    def test_seed_text_above_2_to_the_53_draws_its_own_seed(self):
        model = build_model(0.5)
        est = estimate_correlation(model, 1, 2, 1000, "9007199254740993")
        assert est == estimate_correlation(model, 1, 2, 1000, 2**53 + 1)
        assert est != estimate_correlation(model, 1, 2, 1000, 2**53)
