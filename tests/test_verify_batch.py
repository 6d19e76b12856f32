"""Batched campaign kernel against the scalar reference functions, and the keyed stream."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rigidity import curvature, inequalities, spectral, verify
from rigidity.cli import main
from rigidity.curvature import kn_identity_suite_batch
from rigidity.defaults import tolerance
from rigidity.errors import (
    BadDimension,
    BadParams,
    InvariantViolation,
    NonFiniteResult,
    NotTraceFree,
)
from rigidity.inequalities import (
    bridge_residual,
    classify_spectrum_batch,
    cubic_bound_batch,
    lambda_scan_batch,
    main_inequality_batch,
    newton_gap_batch,
    prop_p3_batch,
    prop_p4_batch,
    sigma_norm_identities_batch,
)
from rigidity.sampling import campaign_chunk, campaign_samples
from rigidity.spectral import (
    eigen_spectrum_batch,
    examine_batch,
    merge_stacks,
    power_sums_batch,
    symfun_from_power_sums_batch,
)

from reference import (
    SymMatrix,
    bridge_residual as reference_bridge_residual,
    classify_spectrum,
    cubic_bound,
    derived_rng,
    eigen_spectrum,
    equality_family_matrix,
    fialkow_tensor,
    kn_identity_suite,
    kulkarni_nomizu,
    lambda_scan,
    lambda_scan_scales,
    main_inequality,
    newton_gap,
    norms,
    prop_p3,
    prop_p4,
    random_rotation,
    random_trace_free,
    sigma_norm_identities,
    symfun_from_power_sums,
    symfun_from_spectrum,
    trace_free_project,
)

DIMS = range(4, 13)
COUNT = 20  # more than one KN contraction step from n = 7 on
TOL = 1e-12


def random_corpus(n):
    return [random_trace_free(derived_rng(900 + n, i), n).entries for i in range(COUNT)]


def equality_corpus(n):
    out = []
    for i in range(COUNT):
        rng = derived_rng(950 + n, i)
        mu = rng.uniform(0.5, 2.0) * (1.0 if i % 2 else -1.0)
        out.append(equality_family_matrix(n, mu, rotation=random_rotation(rng, n)).entries)
    return out


def near_cluster_corpus(n):
    # neighbouring eigenvalues about one cluster threshold apart, some just
    # inside it and some just outside
    out = []
    for i in range(COUNT):
        rng = derived_rng(990 + n, i)
        gaps = 1e-8 * (n - 1) * rng.uniform(0.9, 1.1, n - 2)
        head = 1.0 + np.concatenate([[0.0], np.cumsum(gaps)])
        w = np.concatenate([head, [-head.sum()]])
        q = random_rotation(rng, n)
        out.append(SymMatrix.from_array(q @ np.diag(w) @ q.T).entries)
    return out


def proportional_corpus(n):
    # c I, projected by stack() to zero up to rounding; classified before projection below
    return [derived_rng(970 + n, i).uniform(-2.0, 2.0) * np.eye(n) for i in range(COUNT)]


def zero_corpus(n):
    # entries at most about 1e-11: the spectral radius is below umbilic_tol
    return [1e-11 * m for m in random_corpus(n)]


def clusters_from_links(links):
    sizes = [1]
    for linked in links:
        if linked:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def stack(corpus, n):
    return np.stack([trace_free_project(SymMatrix(m)).entries for m in corpus(n)])


@pytest.mark.parametrize("corpus", [random_corpus, equality_corpus, near_cluster_corpus],
                         ids=["random", "equality_family", "near_cluster"])
@pytest.mark.parametrize("n", DIMS)
def test_batched_kernel_matches_scalar(n, corpus):
    a = stack(corpus, n)
    lam = np.linspace(-2.0, 2.0, 9)
    t = examine_batch(a)
    links, sigma, a2, a22, t3 = t.links, t.sigma, t.a2, t.a22, t.t3
    alt = symfun_from_power_sums_batch(power_sums_batch(a))
    main_batch, large = main_inequality_batch(t)
    batch = {
        "newton_gap": newton_gap_batch(t),
        "prop_p3": prop_p3_batch(t),
        "prop_p4": prop_p4_batch(t),
        "cubic_bound": cubic_bound_batch(t),
        "main_inequality": main_batch,
    }
    r2, r4 = sigma_norm_identities_batch(t)
    gaps, products = lambda_scan_batch(t, np.broadcast_to(lam, (len(a), lam.size)))
    bridge = bridge_residual(t)
    kn = kn_identity_suite_batch(t)
    # at the largest n the rows below span more than one KN contraction step
    assert COUNT > curvature._kn_step_rows(max(DIMS))

    for b in range(len(a)):
        m = SymMatrix(a[b])
        spectrum = eigen_spectrum(m)
        prof = symfun_from_spectrum(spectrum)
        assert clusters_from_links(links[b]) == spectrum.multiplicities
        np.testing.assert_allclose(sigma[:, b], prof.sigma, rtol=TOL, atol=TOL)
        if corpus is random_corpus:
            # Newton's identities lose about n digits on clustered spectra, in
            # both implementations, so the oracle route is compared where the
            # campaign runs it
            sigma_scale = max(1.0, float(np.max(np.abs(prof.sigma))))
            np.testing.assert_allclose(alt[:, b], symfun_from_power_sums(m).sigma,
                                       rtol=0, atol=TOL * sigma_scale)
        np.testing.assert_allclose([a2[b], a22[b], t3[b]], norms(m), rtol=TOL, atol=TOL)
        verdict, case = main_inequality(m, spectrum=spectrum, profile=prof)
        scalar = {
            "newton_gap": [newton_gap(prof, k) for k in range(1, n)],
            "prop_p3": [prop_p3(prof)],
            "prop_p4": [prop_p4(prof)],
            "cubic_bound": [cubic_bound(norms(m), n, trace=m.trace())],
            "main_inequality": [verdict],
        }
        for family, verdicts in scalar.items():
            got = batch[family]
            for field in ("relative_defect", "holds", "equality"):
                row = np.atleast_1d(getattr(got, field)[..., b])
                want = [getattr(v, field) for v in verdicts]
                if field == "relative_defect":
                    np.testing.assert_allclose(row, want, rtol=TOL, atol=TOL, err_msg=family)
                else:
                    assert list(row) == want, (family, field)
        assert large[b] == case.large_eigenspace

        hom4 = max(1.0, a2[b] * a2[b])
        assert abs(bridge[b] - reference_bridge_residual(prof, *norms(m)[:2])) <= TOL * hom4
        s2, s4 = sigma_norm_identities(m, profile=prof)
        assert abs(r2[b] - s2) <= TOL * hom4 and abs(r4[b] - s4) <= TOL * hom4
        values = lambda_scan(prof, lam)
        q_scale, product_scale = lambda_scan_scales(prof, lam)
        np.testing.assert_allclose(gaps[b], values[:-1] / q_scale, rtol=TOL, atol=TOL)
        assert abs(products[b] - values[-1] / product_scale) <= TOL
        np.testing.assert_allclose(kn[b], kn_identity_suite(m), rtol=0, atol=TOL * hom4)


@pytest.mark.parametrize("n", DIMS)
def test_kn_contractions_are_within_8_ulps_of_the_exact_n4_sum(n):
    # the three norms against math.fsum over every entry of the reference's full rank-4 products;
    # gathering with x[:, idx] instead of take sums non-contiguous rows and misses this
    corpus = [SymMatrix(m) for m in random_corpus(n)]
    a = np.stack([m.entries for m in corpus])
    f = np.stack([fialkow_tensor(m)[0].entries for m in corpus])
    got = curvature._kn_contractions(a, f)
    for b, m in enumerate(corpus):
        aa, fg = kulkarni_nomizu(m, m).entries, kulkarni_nomizu(f[b], np.eye(n)).entries
        for k, (x, y) in enumerate(((aa, aa), (aa, fg), (fg, fg))):
            exact = math.fsum((x * y).ravel().tolist())
            assert abs(got[k, b] - exact) <= 8 * math.ulp(exact), (b, k)


@pytest.mark.parametrize("n", [4, 12])
def test_kn_row_does_not_depend_on_its_step(n):
    count = 2 * curvature._kn_step_rows(n) + 3  # the stack spans three steps
    a = np.stack([random_trace_free(derived_rng(1200 + n, i), n).entries for i in range(count)])
    whole = kn_identity_suite_batch(examine_batch(a))
    for b in (0, count // 2, count - 1):
        assert np.array_equal(kn_identity_suite_batch(examine_batch(a[b:b + 1]))[0], whole[b])


@pytest.mark.parametrize("corpus", [random_corpus, equality_corpus, near_cluster_corpus],
                         ids=["random", "equality_family", "near_cluster"])
@pytest.mark.parametrize("n", DIMS)
def test_single_matrix_main_inequality_matches_reference(n, corpus):
    for m in stack(corpus, n):
        verdict, kind = inequalities.main_inequality(m)
        want, case = main_inequality(SymMatrix(m))
        assert (verdict.defect, verdict.relative_defect, verdict.holds, verdict.equality, kind) == (
            want.defect, want.relative_defect, want.holds, want.equality, case.kind)


def _asymmetric():
    m = np.diag([1.0, 1.0, 1.0, -3.0])
    m[0, 1] = 0.25
    return m


@pytest.mark.parametrize("entries, error, message", [
    (np.zeros((4, 5)), InvariantViolation, "expected a square matrix"),
    (np.diag([1.0, 1.0, -2.0]), BadDimension, "dimension must be >= 4"),
    (np.diag([np.nan, 1.0, 1.0, -2.0]), InvariantViolation, "not exactly symmetric"),
    (_asymmetric(), InvariantViolation, "not exactly symmetric"),
], ids=["non_square", "n3", "nan_entry", "asymmetric"])
def test_single_matrix_main_inequality_rejects_as_the_reference(entries, error, message):
    with pytest.raises(error, match=message):
        inequalities.main_inequality(entries)
    with pytest.raises(error, match=message):
        main_inequality(SymMatrix(entries))


@pytest.mark.parametrize("n", [4, 6])
def test_single_matrix_main_inequality_overflow_is_named(n):
    # |A|^n overflows while the entries are finite; |A|^4 too at n = 4
    scale = 1e100 if n == 4 else 1e60
    with pytest.raises(NonFiniteResult, match=rf"^sample 0: \|A\|\^{n} overflows at \|A\|\^2 = "):
        inequalities.main_inequality(scale * np.diag([1.0] * (n - 1) + [1.0 - n]))


def test_equality_family_is_flagged_in_batch():
    for n in DIMS:
        verdict, large = main_inequality_batch(examine_batch(stack(equality_corpus, n)))
        assert verdict.equality.all() and large.all()


def test_batched_preconditions_raise(monkeypatch):
    # each route alone fails its check: the entries of a shifted stack whose spectrum is made
    # trace-free, and the spectrum of a trace-free stack when eigenvalues come back shifted
    a = stack(random_corpus, 5)
    shifted = a + 0.5 * np.eye(5)
    spectrum_of = eigen_spectrum_batch
    monkeypatch.setattr(spectral, "eigen_spectrum_batch",
                        lambda m: spectrum_of(m - 0.5 * np.eye(5)))
    with pytest.raises(NotTraceFree, match="^trace 2.500e[+]00 too large"):
        examine_batch(shifted)
    monkeypatch.setattr(spectral, "eigen_spectrum_batch",
                        lambda m: (spectrum_of(m)[0] + 0.5, spectrum_of(m)[1]))
    with pytest.raises(NotTraceFree, match="^trace 2.500e[+]00 too large"):
        examine_batch(a)


@pytest.mark.parametrize("change, error, message", [
    ({"seed": -1}, BadParams, r"^seed must be in \[0, 2\*\*128\), got -1$"),
    ({"seed": 2 ** 128}, BadParams, rf"^seed must be in \[0, 2\*\*128\), got {2 ** 128}$"),
    ({"lambda_count": 0}, BadParams, "^lambda-count must be >= 1$"),
    ({"lambda_count": -3}, BadParams, "^lambda-count must be >= 1$"),
    ({"dims": [3]}, BadDimension, r"^dimensions must all be >= 4, got \[3\]$"),
    ({"samples": 0}, BadParams, "^samples must be >= 1$"),
], ids=["seed_negative", "seed_2_128", "lambda_count_0", "lambda_count_negative", "n3",
        "samples_0"])
def test_campaign_rejects_inputs_out_of_range(change, error, message):
    with pytest.raises(error, match=message):
        verify.run_verification_campaign(**{"dims": [4, 5], "samples": 10, "seed": 1, **change})


def test_seeds_give_independent_campaigns(tmp_path):
    checks = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}.json"
        assert main(["verify", "--n", "5", "--samples", "256", "--seed", str(seed),
                     "--out", str(out)]) == 0
        checks.append(json.loads(out.read_text())["checks"])
    assert checks[0] != checks[1]


def test_single_index_equals_its_row_of_the_bulk_draw():
    seed, dims, lambda_count = 77, [4, 7, 5, 12], 13
    chunk = campaign_chunk(dims, lambda_count)
    samples = chunk + 37
    bulk = {0: campaign_samples(seed, dims, lambda_count, 0, chunk),
            chunk: campaign_samples(seed, dims, lambda_count, chunk, samples - chunk)}
    for i in (0, chunk - 1, chunk, samples - 1):
        ((n, matrices, lam),) = campaign_samples(seed, dims, lambda_count, i, 1)
        assert n == dims[i % len(dims)]
        start = 0 if i < chunk else chunk
        # a group holds its indices in ascending order
        row = sum(dims[j % len(dims)] == n for j in range(start, i))
        (group,) = [g for g in bulk[start] if g[0] == n]
        assert np.array_equal(group[1][row], matrices[0])
        assert np.array_equal(group[2][row], lam[0])
        assert np.array_equal(matrices[0], matrices[0].T) and abs(np.trace(matrices[0])) < 1e-14


@pytest.mark.parametrize("chunk", [1, 7])
def test_report_does_not_depend_on_the_chunk(monkeypatch, chunk):
    args = ([4, 5, 6, 9, 12], 60, 5)
    whole = verify.run_verification_campaign(*args)
    monkeypatch.setattr(verify, "campaign_chunk", lambda dims, lambda_count: chunk)
    assert verify.run_verification_campaign(*args) == whole


def test_report_does_not_depend_on_the_kn_steps_of_a_chunk(monkeypatch):
    # at the default chunk each dimension's stack is drawn whole and spans more than two KN
    # contraction steps; at chunk 100 the n = 4 stacks fit within one step
    args = ([4, 12], 2 * (2 * curvature._kn_step_rows(4) + 1), 11, 100)
    assert campaign_chunk(args[0], args[3]) >= args[1]
    whole = verify.run_verification_campaign(*args)
    monkeypatch.setattr(verify, "campaign_chunk", lambda dims, lambda_count: 100)
    assert verify.run_verification_campaign(*args) == whole


def campaign_by_group(dims, samples, seed, lambda_count, include_kn):
    """The checks and diagnostics of a campaign folded one dimension group at a time, every
    family on the group's own stack with a scalar n: the oracle of the campaign's merged pass."""
    fuzz = tolerance("fuzz_defect_tol")
    defect_families = ("newton_gap", "prop_p3", "prop_p4", "cubic_bound", "main_inequality")
    families = defect_families + ("sigma_norm_identities", "lambda_scan")
    checks = {family: {} for family in families + (("kn_identity_suite",) if include_kn else ())}
    oracle = {}
    chunk = campaign_chunk(dims, lambda_count)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        for _, a, lam in campaign_samples(seed, dims, lambda_count, start, count):
            stack = examine_batch(a)
            hom4 = np.maximum(1.0, stack.a2 * stack.a2)

            sigma, alt = stack.sigma, symfun_from_power_sums_batch(power_sums_batch(a))
            verify._fold(oracle, max_deviation=np.max(np.abs(sigma - alt), axis=0)
                         / np.maximum(1.0, np.max(np.abs(sigma), axis=0)))

            verdict, large = main_inequality_batch(stack)
            defects = (newton_gap_batch(stack), prop_p3_batch(stack), prop_p4_batch(stack),
                       cubic_bound_batch(stack), verdict)
            for family, family_verdict in zip(defect_families, defects):
                rel = family_verdict.relative_defect
                verify._fold(checks[family], count=rel.size, min_relative_defect=rel,
                             violations=np.count_nonzero(~(rel >= -fuzz)))
            verify._fold(checks["main_inequality"],
                         false_equalities=np.count_nonzero(verdict.equality & ~large),
                         max_bridge_residual=np.abs(bridge_residual(stack)) / hom4)

            r2, r4 = sigma_norm_identities_batch(stack)
            residuals = [np.maximum(np.abs(r2), np.abs(r4))]
            if include_kn:
                residuals.append(np.max(np.abs(kn_identity_suite_batch(stack)), axis=1))
            for family, worst in zip(("sigma_norm_identities", "kn_identity_suite"), residuals):
                verify._fold(checks[family], count=len(a), max_relative_residual=worst / hom4)
            gaps, products = lambda_scan_batch(stack, lam)
            verify._fold(checks["lambda_scan"], count=len(a), min_relative_gap=gaps,
                         max_relative_product=products)
    for family, stats in checks.items():
        stats["pass"] = verify._passes(family, stats)
    return checks, {
        "symfun_oracle_max_relative_deviation": oracle["max_deviation"],
        "symfun_oracle_pass": oracle["max_deviation"] <= tolerance("oracle_agreement_tol"),
    }


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@pytest.mark.parametrize("include_kn", [False, True], ids=["kn_off", "kn_on"])
@pytest.mark.parametrize("dims", [list(DIMS), [12, 4, 7, 5], [5]], ids=["4-12", "12-4-7-5", "5"])
def test_merged_pass_equals_the_per_group_loop(monkeypatch, dims, include_kn, chunk):
    # the oracle draws the whole campaign as one chunk; JSON text compares every float bitwise
    args = (dims, 60, 23, 9)
    checks, diagnostics = campaign_by_group(*args, include_kn)
    monkeypatch.setattr(verify, "campaign_chunk", lambda dims, lambda_count: chunk)
    report = verify.run_verification_campaign(*args, include_kn=include_kn)
    assert json.dumps(report["checks"]) == json.dumps(checks)
    assert json.dumps(report["diagnostics"]) == json.dumps(diagnostics)


def result_arrays(result):
    """The arrays of a kernel's result: a verdict's fields, each item of a tuple, or the array."""
    if isinstance(result, tuple):
        return [x for item in result for x in result_arrays(item)]
    if dataclasses.is_dataclass(result):
        return [getattr(result, field.name) for field in dataclasses.fields(result)]
    return [result]


def test_per_row_n_equals_scalar_n_bitwise():
    # each dimension's random and equality-family rows, merged with n per row, against each
    # dimension's own record, whose n is an int
    stacks = [examine_batch(np.concatenate([stack(random_corpus, n), stack(equality_corpus, n)]))
              for n in DIMS]
    merged = merge_stacks(stacks)
    assert merged.n.tolist() == [n for n in DIMS for _ in range(2 * COUNT)]
    assert merged.a is merged.w is merged.links is None
    assert merged.large.any() and not merged.large.all()
    for name, rows in (("a2", ...), ("a22", ...), ("t3", ...), ("large", ...), ("sigma", slice(5)),
                       ("p", slice(5))):
        want = np.concatenate([getattr(s, name)[rows] for s in stacks], axis=-1)
        assert np.array_equal(getattr(merged, name), want), name
    kernels = (bridge_residual, cubic_bound_batch, prop_p3_batch, prop_p4_batch,
               main_inequality_batch, sigma_norm_identities_batch)
    for kernel in kernels:
        # a field may be a scalar, such as the 0.0 side of prop_p3
        want = zip(*([np.broadcast_to(x, s.a2.shape) for x in result_arrays(kernel(s))]
                     for s in stacks))
        for got, parts in zip(result_arrays(kernel(merged)), want, strict=True):
            got = np.broadcast_to(got, merged.a2.shape)
            assert np.array_equal(got, np.concatenate(parts)), kernel


def test_zero_padded_power_sums_give_the_same_sigma():
    # rows k <= n of the recurrence on power sums padded with zeros to a larger K are the
    # unpadded rows, bitwise; the rows past n are rounding, which the campaign masks out
    for n in (4, 7, 11):
        s = power_sums_batch(stack(random_corpus, n))
        padded = np.zeros((13, s.shape[1]))
        padded[:n + 1] = s
        assert np.array_equal(symfun_from_power_sums_batch(padded)[:n + 1],
                              symfun_from_power_sums_batch(s))


class CountedProducts(np.ndarray):
    """A stack that counts the matrix products taken with it on the left."""

    products = 0

    def __matmul__(self, other):
        CountedProducts.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("n", [4, 7])
def test_power_sums_take_n_minus_one_products(n):
    # s_1..s_n need A^1..A^n; A^(n+1) would be formed and never read
    a = stack(random_corpus, n)
    CountedProducts.products = 0
    s = power_sums_batch(a.view(CountedProducts))
    assert CountedProducts.products == n - 1
    power = np.eye(n)
    for j in range(1, n + 1):
        power = power @ a[0]
        assert s[j, 0] == pytest.approx(np.trace(power), rel=1e-12, abs=1e-12)


def shifted_corpus(n):
    # an eigenspace of dimension n - 1 in a matrix that is not trace-free
    return [m + 0.5 * np.eye(n) for m in equality_corpus(n)]


CLASSIFY_CORPORA = {"random": random_corpus, "equality_family": equality_corpus,
                    "near_cluster": near_cluster_corpus, "proportional": proportional_corpus,
                    "zero": zero_corpus, "shifted_equality": shifted_corpus}


@pytest.mark.parametrize("project", [True, False], ids=["trace_free", "raw"])
@pytest.mark.parametrize("corpus", CLASSIFY_CORPORA.values(), ids=CLASSIFY_CORPORA.keys())
@pytest.mark.parametrize("n", DIMS)
def test_classify_spectrum_batch_matches_scalar(n, corpus, project):
    a = stack(corpus, n) if project else np.stack(corpus(n))
    w, links = eigen_spectrum_batch(a)
    want = [classify_spectrum(eigen_spectrum(SymMatrix.from_array(m))).kind.value for m in a]
    assert classify_spectrum_batch(w, links).tolist() == want


def test_classify_corpora_reach_every_kind():
    a = np.concatenate([np.stack(corpus(6)) for corpus in CLASSIFY_CORPORA.values()])
    kinds = set(classify_spectrum_batch(*eigen_spectrum_batch(a)).tolist())
    assert kinds == {"Zero", "ProportionalToIdentity", "EigenspaceDimExactlyNMinus1",
                     "EigenspaceDimAtLeastNMinus1", "None"}


def test_derived_streams_of_nearby_seeds_differ():
    # seed ^ index made these three the same generator
    draws = [derived_rng(seed, index).random(4).tolist()
             for seed, index in ((20241, 0), (20242, 3), (20243, 2))]
    assert draws[0] != draws[1] and draws[0] != draws[2] and draws[1] != draws[2]
