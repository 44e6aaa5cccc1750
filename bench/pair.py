"""Paired benchmark runs of two commits: the perf-claim rule as a script.

    python3 bench/pair.py BASE HEAD --workload NAME --seed N [--pairs 10]

Run from anywhere inside a zsbench checkout. Each commit is checked out with
``git worktree`` into a temporary directory, every ``__pycache__`` under it is
removed, and its samples run with ``PYTHONDONTWRITEBYTECODE=1``, so every
sample compiles zsbench from that commit's source.

A run is what ``perfbench/run.py --workload NAME --seed N --seconds S``
measures untraced (perfbench's ``measure``, which starts each sample with
``run_sample``), with S the benchmark's ``run_seconds`` from ``BENCHMARK.json``:
fresh interpreters until the next would overrun S seconds; its figures are
the medians over its samples. A pair is one run of each commit; the order
alternates (ABBA): BASE runs first in even pairs, HEAD in odd ones.

The result goes to ``bench/PAIR_<base>_<head>_<workload>_<seed>.json``
(short shas): every run's figures and report sha256; per commit the median
and quartiles over its runs of ``run_s``, ``setup_s`` and ``peak_rss_mb``;
per metric the pairs HEAD won (read lower) and the verdict of the claim
rule: at least ten pairs, HEAD wins at least nine tenths of them, and its
median is below BASE's by more than BASE's interquartile range. Every
sample goes through perfbench's ``check_sample`` (predictor status, MNB's
floor, the mock LLM's keyword rule, and on llm-endpoint the audit log against
the stub's requests and its replay, with the sample's own commit's parser) and
``check_identical``. The script exits 1 when a sample fails one of these checks
or crashes, or when the two commits' report sha256s differ.

perfbench's files are imported, never changed: ``corpus.py`` generates the
inputs and ``run.py`` supplies the workloads, ``write_inputs``, ``measure``
with its ``run_sample``, and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # the checks import zsbench from a worktree, which stays cache-free

import corpus as gen  # noqa: E402 - perfbench's generator, found through the path above
import run as perfbench  # noqa: E402

METRICS = ("run_s", "setup_s", "peak_rss_mb")  # lower is better for each
MIN_PAIRS, WIN_SHARE = 10, 0.9  # the claim rule: at least 9 wins in every 10 pairs


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def checkout(sha: str, path: Path) -> None:
    """A detached worktree of `sha` at `path`, with no bytecode cache."""
    git("worktree", "add", "--detach", str(path), sha)
    for cache in list(path.rglob("__pycache__")):
        shutil.rmtree(cache)


def measure_run(side: Path, wl, corpus, name: str, work: Path, env: dict, stub,
                seconds: float) -> list:
    """One run's samples of the checkout at `side`; their outputs stay under `work`."""
    work.mkdir()
    endpoint = stub.base + "/v1/chat/completions" if stub else None
    config = perfbench.write_inputs(name, wl, corpus, work, endpoint)
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(side / "src"),
                                                             env.get("PYTHONPATH")])))
    return perfbench.measure(config, work, env, stub, seconds, trace=False)


def figures(samples: list) -> dict:
    """A run's medians over the samples that finished."""
    ok = [s for s in samples if s.out is not None]
    out = {m: statistics.median(s.out[m] for s in ok) if ok else None for m in METRICS}
    return dict(out, samples=len(ok))


def check_run(samples: list, side: Path, wl, corpus, answers) -> tuple[str | None, list[str]]:
    """(report sha256, problems found) of one run: perfbench's checks of every sample.

    The audit replay imports zsbench, from `side`. A sample's max RSS starts
    from this process's resident set, which Linux carries across fork and
    exec, so an import here would raise every later sample's `peak_rss_mb`:
    the checks wait until every run is done.
    """
    ok = [s for s in samples if s.out is not None]
    src = str(side / "src")
    for module in [m for m in sys.modules if m.partition(".")[0] == "zsbench"]:
        del sys.modules[module]
    sys.path.insert(0, src)
    try:
        for s in ok:
            perfbench.check_sample(s, wl, corpus, answers, first=s is ok[0])
    finally:
        sys.path.remove(src)
    sha = perfbench.check_identical(ok, [p["name"] for p in wl.predictors]) if ok else None
    problems = [note for s in samples for note in s.notes]
    if len(ok) < len(samples):
        problems.append("a sample crashed")
    return sha, problems


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one commit's run figures."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def verdicts(runs: list[dict]) -> dict:
    """Per metric: each commit's summary, HEAD's wins and the claim rule's verdict."""
    out = {}
    for m in METRICS:
        base = [r["base"][m] for r in runs]
        head = [r["head"][m] for r in runs]
        if None in base or None in head:
            continue
        b, h = summary(base), summary(head)
        wins = sum(hv < bv for bv, hv in zip(base, head))
        out[m] = {
            "base": b, "head": h, "head_wins": wins, "pairs": len(runs),
            "gain_shown": len(runs) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(runs))
            and b["median"] - h["median"] > b["q3"] - b["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="paired zsbench benchmark runs of two commits")
    parser.add_argument("base", help="the commit to compare against, e.g. HEAD~1")
    parser.add_argument("head", help="the commit whose gain is claimed")
    parser.add_argument("--workload", required=True, choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]
    try:
        shas = {side: git("rev-parse", "--short", f"{ref}^{{commit}}")
                for side, ref in (("base", args.base), ("head", args.head))}
    except subprocess.CalledProcessError as exc:
        parser.error(f"not a commit: {exc.cmd[-1].removesuffix('^{commit}')}")

    wl = perfbench.WORKLOADS[args.workload]
    corpus = gen.generate(wl.spec, args.seed)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    tmp = Path(tempfile.mkdtemp(prefix="zsbench-pair-"))
    trees = {side: tmp / side for side in shas}
    stub, answers, runs, measured, problems = None, None, [], [], []
    try:
        for side, sha in shas.items():
            checkout(sha, trees[side])
        if wl.endpoint:
            answers = perfbench.stub_answers(corpus, wl.spec.labels, args.seed)
            (tmp / "answers.json").write_text(json.dumps(answers), "utf-8")
            stub = perfbench.Stub(tmp / "answers.json")
            env[perfbench.STUB_KEY_ENV] = "stub-key-not-secret"
            env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                samples = measure_run(trees[side], wl, corpus, args.workload,
                                      tmp / f"work-{i}-{side}", env, stub, seconds)
                pair[side] = figures(samples)
                measured.append((i, side, samples))
                print(f"pair {i} {side}: " + ", ".join(
                    f"{m} {pair[side][m]:.4f}" for m in METRICS if pair[side][m] is not None
                ), flush=True)
            runs.append(pair)
        for i, side, samples in measured:
            runs[i][side]["report_sha256"], found = check_run(samples, trees[side], wl, corpus,
                                                              answers)
            problems += [f"pair {i} {side}: {p}" for p in found]
    finally:
        if stub is not None:
            stub.close()
        for path in trees.values():
            if path.exists():
                git("worktree", "remove", "--force", str(path))
        shutil.rmtree(tmp, ignore_errors=True)

    # a run whose every sample crashed has no sha; the crash is already a problem
    side_shas = {side: sorted({r[side]["report_sha256"] for r in runs} - {None}) for side in shas}
    if side_shas["base"] != side_shas["head"] or len(side_shas["base"]) != 1:
        problems.append(f"report sha256s differ: base {side_shas['base']}, "
                        f"head {side_shas['head']}")
    result = {
        "base": shas["base"], "head": shas["head"], "workload": args.workload,
        "seed": args.seed, "seconds": seconds, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "report_sha256": side_shas, "metrics": verdicts(runs),
        "runs": runs, "problems": problems,
    }
    out = ROOT / "bench" / f"PAIR_{shas['base']}_{shas['head']}_{args.workload}_{args.seed}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", "utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    for m, v in result["metrics"].items():
        print(f"{m:<12} base {v['base']['median']:.4f} [{v['base']['q1']:.4f}, "
              f"{v['base']['q3']:.4f}]  head {v['head']['median']:.4f}  "
              f"head wins {v['head_wins']}/{v['pairs']}  gain shown: {v['gain_shown']}")
    for problem in problems:
        print(f"pair: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
