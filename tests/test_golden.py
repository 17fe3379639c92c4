"""Golden answers: canonical reports for patterns I-VI x {core, bfs} on one
fixed synthetic contact hypergraph must keep their sha256 digests.

The digests are those of the reports the pin-count hypergraph FM produced;
FM on the doubled pair graph makes the same moves, so every report is
byte-identical. A change that alters any answer, its tie-breaking or the
report format fails here.
"""

import hashlib

import pytest

from motifclust import RunConfig, run_local_clustering
from motifclust.testing import synthetic_contact_edges, write_arb_dataset

GOLDEN = {
    ("I", "core"): "00001e4be767577a18c9d37056d1152826fe588d75ffe79fe406a460c3577623",
    ("I", "bfs"): "c4acf7fb219e5a6a2b2898e50173363c6acc566ef3f1d7cccb7d8ba42af18e08",
    ("II", "core"): "19e38ad467220d566dcecbcf4a72531289372642e7a05377afb7dab99eb7ca54",
    ("II", "bfs"): "b955cf2028a938e194b4c3ed09fa2c09b90b5b045532e4d7535a778a59a7b621",
    ("III", "core"): "d0edb1c758fa0bd86ab0573d33ea06a30fcb54bbf3bc076d4829de9658f86bb8",
    ("III", "bfs"): "33b94372b17dab9eefe9eadaf2c6e9cc1918e62e5f215698662894b852bd5618",
    ("IV", "core"): "bfcc810bd0529eb13efa732976fce62961c428ce1202c5dedded6f3f2daa5d94",
    ("IV", "bfs"): "858f8730afccae353f6c3ba66b54e9806f35112e3c31f6192186ec5805cdcaad",
    ("V", "core"): "92782fa5fd2e567fd8034c34b6ef0cb2b2bdc78a9caddc172d55650493f55d8f",
    ("V", "bfs"): "5b93d91c39fd2f89d60a2094e63cd564e9bb5b6a3faa29568bf94fc6ab8598eb",
    ("VI", "core"): "7f05a786775e052350beaa07940c40e90515eed44618f80ae2adc2f023fe3011",
    ("VI", "bfs"): "2045b2ff2e5aa0d954fdb42bd8acc331db207a40479931f1cffe8e90206ee6fa",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("golden") / "golden")
    write_arb_dataset(
        synthetic_contact_edges(n_edges=2000), prefix + "-nverts.txt", prefix + "-simplices.txt"
    )
    return prefix


@pytest.mark.parametrize("pattern,method", sorted(GOLDEN))
def test_golden_report_digest(dataset, pattern, method):
    config = RunConfig(
        input=dataset,
        format="arb",
        method=method,
        motif=pattern,
        seed_edge="index:0",
        beta=4,
        rng_seed=7,
        dataset="golden",
    )
    report = run_local_clustering(config)
    assert report.status == "ok"
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == GOLDEN[(pattern, method)]
