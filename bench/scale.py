"""Scale bench: the paper's roster on perfbench's spam-like corpus at paper scale.

    python3 bench/scale.py [--sizes 5000,20000] [--runs 3]

Run from anywhere inside a zsbench checkout. For each size N the bench
generates perfbench's ``SPAM`` corpus at seed 101 with ``n_docs = N`` and
``n_stems = max(3000, 3N)``, holds out 30% of it as the test split, and runs
the paper-roster predictors (MNB, LG with 200 epochs, RF with 100 trees, DT,
KNN with k = 5 and the mock keyword LLM with 5 repeats) ``--runs`` times.
Each run is one fresh interpreter under perfbench's outside-in tracer
(``perfbench/worker.py --trace``), so every figure comes from a traced run.
The 50,000-document size takes minutes; ask for it with ``--sizes``.

The result goes to ``bench/BENCH_scale_<git describe --always --dirty>.json``:
the sha; the Python, numpy and scipy versions and the CPU count; and per
size the median over the runs of each traced layer, of the feature pass
(``preprocess.s + features.fit_s + features.transform_s``), of ``run_s`` and
of peak RSS, plus the report sha256 the runs share. The bench exits 1 when
a run fails (a crash, or a predictor whose status is not ``ok``) or when the
runs of one size disagree on their reports. It warns, without failing, when
a size's report sha256 differs from the one in the newest committed
``BENCH_scale_*.json`` that has that size: the reports changed, or numpy or
scipy rounds differently here.

perfbench's files are imported, never changed: ``corpus.py`` generates the
inputs and ``run.py`` supplies the spec, the roster and the sample runner.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus as gen  # noqa: E402 - perfbench's generator, found through the path above
import run as perfbench  # noqa: E402

SEED = 101
TEST_SHARE = 0.3
FEATURE_LAYERS = ("preprocess.s", "features.fit_s", "features.transform_s")


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def committed_shas() -> dict[str, tuple[str, str]]:
    """Size -> (file, report sha256), from the newest committed bench file
    (by the time of the commit that added it) that records the size."""
    files = (git("ls-files", "bench/BENCH_scale_*.json") or "").split()
    added = {f: int(git("log", "--diff-filter=A", "--format=%ct", "-1", "--", f) or 0) for f in files}
    shas = {}
    for f in sorted(files, key=lambda f: (added[f], f)):
        for size, figures in json.loads((ROOT / f).read_text("utf-8"))["sizes"].items():
            shas[size] = (f, figures["report_sha256"])
    return shas


def run_size(n_docs: int, runs: int, work: Path, env: dict) -> tuple[dict, list[str]]:
    """(figures for one corpus size, problems found)."""
    spec = dataclasses.replace(perfbench.SPAM, n_docs=n_docs, n_stems=max(3000, 3 * n_docs))
    roster = perfbench.WORKLOADS["paper-roster"].predictors
    wl = perfbench.Workload(spec=spec, test_size=round(TEST_SHARE * n_docs), predictors=roster)
    size_dir = work / f"n{n_docs}"
    size_dir.mkdir()
    config = perfbench.write_inputs(f"scale-{n_docs}", wl, gen.generate(spec, SEED), size_dir, None)

    samples, good = [], []
    for i in range(runs):
        no_deadline = time.monotonic() + 24 * 3600
        sample = perfbench.run_sample(i, True, config, size_dir, env, None, no_deadline)
        samples.append(sample)
        if sample.out is None:
            continue
        perfbench.check_status(sample)
        if sample.failed:
            continue
        layers = sample.out["layers"]
        parts = [layers[k] for k in FEATURE_LAYERS]
        layers["feature_pass_s"] = None if None in parts else sum(parts)
        good.append(sample)
        print(f"n={n_docs} run {i}: run_s {sample.out['run_s']:.2f} s, "
              f"peak {sample.out['peak_rss_mb']:.1f} MiB", flush=True)
    sha = perfbench.check_identical(good, [p["name"] for p in roster]) if good else None
    problems = [f"n={n_docs} run {i}: {note}" for i, s in enumerate(samples) for note in s.notes]
    outs = [s.out for s in good]

    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    names = outs[0]["layers"] if outs else ()
    layers = {name: median([o["layers"][name] for o in outs]) for name in names}
    figures = {
        "n_docs": n_docs,
        "test_docs": wl.test_size,
        "runs": len(outs),
        "run_s": median([o["run_s"] for o in outs]),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
        "layers": layers,
        "report_sha256": sha,
    }
    return figures, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="zsbench scale bench")
    parser.add_argument("--sizes", default="5000,20000",
                        help="comma-separated corpus sizes (default 5000,20000)")
    parser.add_argument("--runs", type=int, default=3, help="runs per size (default 3)")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.runs < 1 or any(n < 10 for n in sizes):
        parser.error("--runs must be positive and every size at least 10")

    import numpy
    import scipy

    sha = git("describe", "--always", "--dirty") or "unknown"
    result = {
        "sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "runs": args.runs,
        "sizes": {},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="scale-", dir=ROOT / ".perfbench_work"))
    problems = []
    try:
        for n_docs in sizes:
            figures, found = run_size(n_docs, args.runs, work, env)
            result["sizes"][str(n_docs)] = figures
            problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / "bench" / f"BENCH_scale_{sha}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", "utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    recorded = committed_shas()
    for size, figures in result["sizes"].items():
        if size in recorded and figures["report_sha256"] != recorded[size][1]:
            print(f"scale: warning: n={size} report sha256 {figures['report_sha256']} differs "
                  f"from {recorded[size][1]} in {recorded[size][0]}", file=sys.stderr)
    for problem in problems:
        print(f"scale: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
