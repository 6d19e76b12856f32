"""Batched campaign kernel against the scalar reference functions, and the keyed stream."""

import json

import numpy as np
import pytest

from rigidity import verify
from rigidity.cli import main
from rigidity.curvature import kn_identity_suite, kn_identity_suite_batch
from rigidity.errors import NotTraceFree
from rigidity.inequalities import (
    bridge_residual,
    classify_spectrum,
    classify_spectrum_batch,
    cubic_bound,
    cubic_bound_batch,
    lambda_scan,
    lambda_scan_batch,
    lambda_scan_scales,
    main_inequality,
    main_inequality_batch,
    newton_gap,
    newton_gap_batch,
    prop_p3,
    prop_p3_batch,
    prop_p4,
    prop_p4_batch,
    sigma_norm_identities,
    sigma_norm_identities_batch,
)
from rigidity.sampling import (
    campaign_chunk,
    campaign_samples,
    derived_rng,
    equality_family_matrix,
    random_rotation,
    random_trace_free,
)
from rigidity.spectral import (
    SymMatrix,
    eigen_spectrum,
    eigen_spectrum_batch,
    norms,
    norms_batch,
    symfun_from_power_sums,
    symfun_from_power_sums_batch,
    symfun_from_spectrum,
    symfun_from_spectrum_batch,
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
    w, links = eigen_spectrum_batch(a)
    profile = symfun_from_spectrum_batch(w)
    alt = np.array(symfun_from_power_sums_batch(a).sigma)
    a_norms = norms_batch(a)
    a2, a22, t3 = a_norms
    trace = np.trace(a, axis1=1, axis2=2)
    main_batch, large = main_inequality_batch(a_norms, trace, profile, links)
    batch = {
        "newton_gap": newton_gap_batch(profile),
        "prop_p3": prop_p3_batch(profile),
        "prop_p4": prop_p4_batch(profile),
        "cubic_bound": cubic_bound_batch(a_norms, n, trace),
        "main_inequality": main_batch,
    }
    r2, r4 = sigma_norm_identities_batch(profile, a_norms, trace)
    gaps, products = lambda_scan_batch(profile, np.broadcast_to(lam, (len(a), lam.size)))
    bridge = bridge_residual(profile, a2, a22)
    kn = kn_identity_suite_batch(a)

    for b in range(len(a)):
        m = SymMatrix(a[b])
        spectrum = eigen_spectrum(m)
        prof = symfun_from_spectrum(spectrum)
        assert clusters_from_links(links[b]) == spectrum.multiplicities
        np.testing.assert_allclose([x[b] for x in profile.sigma], prof.sigma, rtol=TOL, atol=TOL)
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
        assert abs(bridge[b] - bridge_residual(prof, *norms(m)[:2])) <= TOL * hom4
        s2, s4 = sigma_norm_identities(m, profile=prof)
        assert abs(r2[b] - s2) <= TOL * hom4 and abs(r4[b] - s4) <= TOL * hom4
        values = lambda_scan(prof, lam)
        q_scale, product_scale = lambda_scan_scales(prof, lam)
        np.testing.assert_allclose(gaps[b], values[:-1] / q_scale, rtol=TOL, atol=TOL)
        assert abs(products[b] - values[-1] / product_scale) <= TOL
        np.testing.assert_allclose(kn[b], kn_identity_suite(m), rtol=0, atol=TOL * hom4)


def test_equality_family_is_flagged_in_batch():
    for n in DIMS:
        a = stack(equality_corpus, n)
        w, links = eigen_spectrum_batch(a)
        verdict, large = main_inequality_batch(norms_batch(a), np.trace(a, axis1=1, axis2=2),
                                               symfun_from_spectrum_batch(w), links)
        assert verdict.equality.all() and large.all()


def test_batched_preconditions_raise():
    m = np.stack([np.diag([1.0, 2.0, 3.0, 4.0 + i]) for i in range(3)])
    w, links = eigen_spectrum_batch(m)
    profile = symfun_from_spectrum_batch(w)
    a_norms = norms_batch(m)
    trace = np.trace(m, axis1=1, axis2=2)
    with pytest.raises(NotTraceFree):
        main_inequality_batch(a_norms, trace, profile, links)
    with pytest.raises(NotTraceFree):
        cubic_bound_batch(a_norms, 4, trace)
    with pytest.raises(NotTraceFree):
        prop_p3_batch(profile)
    with pytest.raises(NotTraceFree):
        kn_identity_suite_batch(m)


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
