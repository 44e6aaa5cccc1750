"""A frozen report at paper scale: the paper roster on 2,000 spam-like documents.

The fixture goldens (test_golden.py) hold 200 documents. A tie-break or
summation-order change in KNN, CART or TF-IDF that only shows at thousands of
documents would pass them, so this test pins the report sha256 of one run
built the way `bench/scale.py` builds its runs: perfbench's `SPAM` spec with
2,000 documents and 6,000 stems at seed 101, a 600-document test split, and
perfbench's paper-roster predictors. perfbench's `corpus.py` and `run.py` are
imported, never changed, and the sha256 is perfbench's `check_identical`
digest of `report.json` and `reports/*.json`.

The pinned bytes can move with the numpy or scipy version, as the fixture
goldens can. To refreeze after an intended change in results, run the test
and copy the sha256 it reports.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import corpus as gen  # noqa: E402 - perfbench's generator, found through the path above
import run as perfbench  # noqa: E402

from zsbench.orchestrator import load_config, run_experiment  # noqa: E402

N_DOCS = 2000
SEED = 101
REPORT_SHA256 = "4cc3a7b7c04d8ccf142849abcc4a1de7d4b2c305d3d5fbf6a3c19fa3df183bc6"


def test_paper_roster_at_2000_documents_matches_pinned_sha(tmp_path):
    spec = dataclasses.replace(perfbench.SPAM, n_docs=N_DOCS, n_stems=3 * N_DOCS)
    roster = perfbench.WORKLOADS["paper-roster"].predictors
    wl = perfbench.Workload(spec=spec, test_size=600, predictors=roster)
    config = perfbench.write_inputs(
        f"scale-{N_DOCS}", wl, gen.generate(spec, SEED), tmp_path, None
    )

    result = run_experiment(load_config(config), run_id="scale")
    assert {name: res.status for name, res in result.predictors.items()} == {
        p["name"]: "ok" for p in roster
    }
    sample = perfbench.Sample(traced=False, out={"run_dir": str(result.run_dir)})
    assert perfbench.check_identical([sample], []) == REPORT_SHA256
