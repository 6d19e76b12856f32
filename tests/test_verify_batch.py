"""Batched campaign kernel against the scalar reference functions, and the keyed stream."""

import json

import numpy as np
import pytest

from rigidity import inequalities, spectral, verify
from rigidity.cli import main
from rigidity.curvature import kn_identity_suite_batch
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
from rigidity.spectral import eigen_spectrum_batch, examine_batch, symfun_from_power_sums_batch

from reference import (
    SymMatrix,
    bridge_residual as reference_bridge_residual,
    classify_spectrum,
    cubic_bound,
    derived_rng,
    eigen_spectrum,
    equality_family_matrix,
    kn_identity_suite,
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
COUNT = 20  # more than two KN sub-batches
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
    alt = symfun_from_power_sums_batch(a)
    np.testing.assert_array_equal(t.trace, np.trace(a, axis1=1, axis2=2))
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
