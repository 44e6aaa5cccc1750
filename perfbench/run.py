"""zsbench benchmark: end-to-end run metrics and an outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zsbench checkout. The workload's inputs are generated
from the seed into a scratch directory under ``.perfbench_work/``. For
``--seconds`` seconds the benchmark then starts one fresh interpreter per
sample (worker.py), each importing ``zsbench.cli``, loading the config and
calling ``run_experiment`` once, as ``zsbench run`` does. Timings are medians
over the samples. With ``--trace 1`` the samples alternate between untraced
and traced runs and the per-layer metrics of the traced ones are reported,
with the trace overhead; their spans go to ``.perfbench_out/``.

Every sample's outputs are checked (see ``check_*``). Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. An operation is one predictor
entry of one sample; it fails when its status is not ``ok``, when its sample
crashed, or when a correctness check on it fails. Any failure gives exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import corpus as gen

BENCH_DIR = Path(__file__).resolve().parent
STUB_KEY_ENV = "ZSBENCH_STUB_KEY"
MIN_SAMPLES = 3  # per kind of sample (untraced, traced)
LAST_START_S = 150.0  # no sample starts later than this, so a run ends within 180 s
SAMPLE_GRACE_S = 15.0  # how long a sample may run past LAST_START_S

# Corpora are sized so that one run_experiment takes 3-4 s on a 2-vCPU VM:
# a 36-s benchmark run then holds about eight samples, and their median rides
# out the host's speed swings, which reach +-25% between back-to-back runs.
SPAM = gen.CorpusSpec(
    labels=("ham", "spam"), class_weights=(0.87, 0.13), n_docs=500, n_stems=3000,
    topic_stems=150, topic_share=0.35, tokens=(6, 22), spam_label="spam",
    spam_keyword_p=(0.85, 0.04),
)
NEWS = gen.CorpusSpec(
    labels=("world", "sports", "business", "science"), class_weights=(1, 1, 1, 1),
    n_docs=1500, n_stems=30000, topic_stems=400, topic_share=0.3, tokens=(25, 55), zipf_s=0.8,
)
SHOP = gen.CorpusSpec(
    labels=("Household", "Books", "Clothing & Accessories", "Electronics"),
    class_weights=(0.38, 0.24, 0.21, 0.17), n_docs=400, n_stems=4000, topic_stems=200,
    topic_share=0.3, tokens=(15, 35),
)


@dataclass(frozen=True)
class Workload:
    spec: gen.CorpusSpec
    test_size: int
    predictors: list
    mnb_floor: float | None = None  # accuracy MNB must reach on this corpus
    endpoint: bool = False  # LLM predictors talk to the loopback stub


MOCK_LLM = {
    "name": "mock-llm", "type": "llm", "repeat_count": 5,
    "provider": {"type": "mock", "rules": {"spam": gen.SPAM_KEYWORDS},
                 "default_label": "ham", "noise": True},
}
HTTP_LLM = {
    "name": "http-llm", "type": "llm", "model": "stub-chat", "batch_size": 25,
    "repeat_count": 5, "concurrency": 2, "max_retries": 3, "backoff_base_s": 0.01,
    "timeout_s": 30.0,
    "task": {"subject": "e-commerce products", "item_singular": "product",
             "item_plural": "products", "venue": "the e-commerce website"},
}

WORKLOADS = {
    # the paper's protocol: five baselines with its hyperparameters and an LLM
    "paper-roster": Workload(
        spec=SPAM, test_size=150, mnb_floor=0.9,
        predictors=[{"name": "mnb", "alpha": 1.0}, {"name": "lg", "epochs": 200},
                    {"name": "rf", "n_trees": 100, "seed": 7}, {"name": "dt"},
                    {"name": "knn", "k": 5}, MOCK_LLM],
    ),
    # long documents, wide vocabulary, no trees: cleaning, stemming, TF-IDF
    "wide-vocab": Workload(
        spec=NEWS, test_size=500, mnb_floor=0.9,
        predictors=[{"name": "mnb", "alpha": 1.0}, {"name": "lg", "epochs": 200},
                    {"name": "knn", "k": 5}],
    ),
    # the HTTP client, retries, re-asks, audit log and parser on messy replies;
    # the test set is the whole corpus, so batch b holds ids 25b..25b+24 and
    # the stub can tell a batch, and which one, from the ids in its prompt
    "llm-endpoint": Workload(spec=SHOP, test_size=SHOP.n_docs, predictors=[HTTP_LLM],
                             endpoint=True),
}

INVALID_EVERY = 50  # the stub answers every 50th document outside the schema
WRONG_SHARE = 0.12  # share of documents the stub labels wrongly on purpose


@dataclass
class Sample:
    traced: bool
    out: dict | None = None  # the worker's result; None when it crashed
    stub_stats: dict | None = None
    failed: set = field(default_factory=set)  # predictor entries that failed
    notes: list = field(default_factory=list)


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- inputs -----------------------------------------------------------------


def write_inputs(name: str, wl: Workload, corpus: gen.Corpus, work: Path, endpoint: str | None):
    data = work / "corpus.jsonl"
    gen.write_jsonl(corpus, data)
    predictors = [dict(p) for p in wl.predictors]
    for p in predictors:
        if p.get("type") == "llm" and wl.endpoint:
            p["provider"] = {"type": "http", "endpoint": endpoint, "api_key_env": STUB_KEY_ENV}
    config = {
        "dataset": {"path": str(data), "format": "jsonl", "text_field": "text",
                    "label_field": "label",
                    "schema": {"task_name": name, "labels": list(wl.spec.labels)}},
        "split": {"test_size": wl.test_size, "seed": 42},
        "predictors": predictors,
        "output_dir": str(work / "runs"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), "utf-8")
    return config_path


def stub_answers(corpus: gen.Corpus, labels: tuple, seed: int) -> dict:
    """The label the stub intends for each document: gold, except an exact
    share that is deliberately wrong, plus the ids it answers invalidly."""
    rng = random.Random(f"answers:{seed}")
    intended = list(corpus.labels)
    for i in rng.sample(range(len(intended)), round(WRONG_SHARE * len(intended))):
        intended[i] = rng.choice([lab for lab in labels if lab != intended[i]])
    invalid = [i for i in range(len(intended)) if i % INVALID_EVERY == INVALID_EVERY - 1]
    return {"intended": intended, "invalid_ids": invalid, "batch_size": HTTP_LLM["batch_size"]}


class Stub:
    """The loopback endpoint, run as a separate process for one benchmark run."""

    def __init__(self, answers_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), str(answers_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            die("the endpoint stub did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.base + path, data=b"" if post else None)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.stdin.close()  # the stub exits when its stdin closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- measuring --------------------------------------------------------------


def run_sample(i: int, traced: bool, config: Path, work: Path, env: dict, stub, last_start: float):
    sample = Sample(traced=traced)
    out_path = work / f"sample-{i}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(config), f"s{i}", str(out_path)]
    if traced:
        cmd.append("--trace")
    if stub is not None:
        stub.call("/reset", post=True)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=last_start + SAMPLE_GRACE_S - time.monotonic())
    except subprocess.TimeoutExpired:
        sample.notes.append("sample timed out")
        return sample
    if proc.returncode != 0 or not out_path.is_file():
        sample.notes.append(f"sample crashed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        return sample
    sample.out = json.loads(out_path.read_text("utf-8"))
    if stub is not None:
        sample.stub_stats = stub.call("/stats")
    return sample


def measure(config: Path, work: Path, env: dict, stub, seconds: float, trace: bool):
    """Samples until the next one would overrun `seconds`; at least
    MIN_SAMPLES of each kind. Traced and untraced samples alternate."""
    start = time.monotonic()
    last_start = start + LAST_START_S
    kinds = [False, True] if trace else [False]
    samples: list[Sample] = []
    while True:
        traced = kinds[len(samples) % len(kinds)]
        done = [s for s in samples if s.traced == traced]
        took = [s.out["setup_s"] + s.out["run_s"] for s in samples if s.out]
        estimate = statistics.median(took) if took else 0.0
        if len(done) >= MIN_SAMPLES and time.monotonic() - start + estimate > seconds:
            break
        if time.monotonic() > last_start:
            break
        samples.append(run_sample(len(samples), traced, config, work, env, stub, last_start))
        if samples[-1].out is None:
            break  # a crash repeats; report it rather than retrying
    return samples


# -- correctness checks -------------------------------------------------------


def report_bytes(run_dir: Path) -> dict[str, bytes]:
    files = [run_dir / "report.json", *sorted((run_dir / "reports").glob("*.json"))]
    return {str(f.relative_to(run_dir)): f.read_bytes() for f in files}


def load_report(run_dir: Path, name: str) -> dict:
    return json.loads((run_dir / "reports" / f"{name}.json").read_text("utf-8"))


def check_status(s: Sample) -> None:
    for name, res in s.out["predictors"].items():
        if res["status"] != "ok":
            s.failed.add(name)
            s.notes.append(f"{name} ended with status {res['status']}: {res['error']}")


def check_identical(samples: list[Sample], names: list[str]) -> str:
    """Reports must be byte-identical across samples; returns their sha256."""
    first = report_bytes(Path(samples[0].out["run_dir"]))
    for s in samples[1:]:
        if report_bytes(Path(s.out["run_dir"])) != first:
            s.failed.update(names)
            s.notes.append("report.json or reports/*.json differ from the first sample")
    digest = hashlib.sha256()
    for rel, data in sorted(first.items()):
        digest.update(rel.encode() + b"\0" + data)
    return digest.hexdigest()


def check_mnb_floor(s: Sample, floor: float) -> None:
    acc = load_report(Path(s.out["run_dir"]), "mnb")["report"]["acc"]
    if acc < floor:
        s.failed.add("mnb")
        s.notes.append(f"MNB accuracy {acc:.4f} is below the floor {floor}")


def keyword_rule_acc(corpus: gen.Corpus, run_dir: Path) -> float:
    """ACC of the mock LLM's keyword rule, computed here independently."""
    test_ids = json.loads((run_dir / "split.json").read_text("utf-8"))["test_ids"]
    hits = 0
    for i in test_ids:
        text = corpus.texts[i].lower()
        predicted = "spam" if any(k in text for k in gen.SPAM_KEYWORDS) else "ham"
        hits += predicted == corpus.labels[i]
    return hits / len(test_ids)


def check_mock_llm(s: Sample, corpus: gen.Corpus) -> None:
    run_dir = Path(s.out["run_dir"])
    expected = keyword_rule_acc(corpus, run_dir)
    for r, run in enumerate(load_report(run_dir, MOCK_LLM["name"])["runs"]):
        if abs(run["acc"] - expected) > 1e-12 or run["n_invalid_predictions"] != 0:
            s.failed.add(MOCK_LLM["name"])
            s.notes.append(f"mock LLM repeat {r}: ACC {run['acc']} != keyword rule {expected}")


def check_endpoint(s: Sample, answers: dict, replay: bool) -> None:
    """Resolved labels match the stub's intent, invalid answers stay invalid,
    the audit log has one line per request, and replay reproduces it."""
    name = HTTP_LLM["name"]
    run_dir = Path(s.out["run_dir"])
    intended, invalid = answers["intended"], set(answers["invalid_ids"])
    problems = []
    audit = run_dir / "audit" / f"{name}.jsonl"
    records = [json.loads(line) for line in audit.read_text("utf-8").splitlines() if line]
    resolved: dict[tuple, set] = {}
    for rec in records:
        for key, label in rec["parsed"]["resolved"].items():
            if int(key) in invalid or label != intended[int(key)]:
                problems.append(f"doc {key} resolved to {label!r}")
        resolved.setdefault((rec["repeat"], rec["batch"]), set()).update(
            int(k) for k in rec["parsed"]["resolved"])
    for (repeat, batch), got in sorted(resolved.items()):
        size = answers["batch_size"]
        want = {i for i in range(batch * size, min((batch + 1) * size, len(intended)))} - invalid
        if got != want:
            problems.append(f"repeat {repeat} batch {batch}: {len(want - got)} docs unresolved")
    report = load_report(run_dir, name)
    n_requests = sum(r["n_requests"] for r in report["diagnostics"]["per_run"])
    runs = report["runs"]
    if any(r["n_invalid_predictions"] != len(invalid) for r in runs):
        problems.append("invalid-answer count differs from the stub's")
    if len(records) != n_requests:
        problems.append(f"audit log has {len(records)} lines for {n_requests} requests")
    served = s.stub_stats["by_status"].get("200", 0)
    if served != len(records):
        problems.append(f"stub answered {served} requests, audit log has {len(records)} lines")
    attempts = s.out.get("layers", {}).get("gateway.client.attempts")
    if attempts is not None and attempts != s.stub_stats["requests"]:
        problems.append(f"client made {attempts} attempts, stub received {s.stub_stats['requests']}")
    if replay:
        problems += replay_problems(audit)
    if problems:
        s.failed.add(name)
        s.notes += problems[:10]


def replay_problems(audit: Path) -> list[str]:
    from zsbench.dataset import LabelSchema
    from zsbench.gateway import replay_audit

    schema = LabelSchema("llm-endpoint", SHOP.labels)
    problems = []
    for record, parsed in replay_audit(audit, schema):
        again = {str(k): v for k, v in sorted(parsed.resolved.items())}
        if again != record["parsed"]["resolved"]:
            problems.append(f"replay differs on batch {record['batch']} ({record['phase']})")
    return problems


# -- reporting --------------------------------------------------------------


def metric(value: float | None, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "unmeasured": True}
    return {"value": value, "unit": unit}


LAYER_UNITS = {"s": "s", "calls": "count", "fits": "count", "vocab": "count",
               "requests": "count", "attempts": "count", "retries": "count",
               "bytes": "bytes", "unparseable": "count", "stem_calls": "count"}


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    if tail.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(tail, "ratio")


def median_of(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description="zsbench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "zsbench" / "orchestrator.py").is_file():
        die(f"no zsbench sources under {src}; run from the root of a zsbench checkout")
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]

    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_work"))
    stub = None
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        corpus = gen.generate(wl.spec, args.seed)
        answers = None
        if wl.endpoint:
            answers = stub_answers(corpus, wl.spec.labels, args.seed)
            (work / "answers.json").write_text(json.dumps(answers), "utf-8")
            stub = Stub(work / "answers.json")
            env[STUB_KEY_ENV] = "stub-key-not-secret"
            env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
        endpoint = stub.base + "/v1/chat/completions" if stub else None
        config = write_inputs(args.workload, wl, corpus, work, endpoint)
        samples = measure(config, work, env, stub, args.seconds, bool(args.trace))
        return finish(args, wl, corpus, answers, samples, root)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)


def check_sample(s: Sample, wl: Workload, corpus: gen.Corpus, answers, first: bool) -> None:
    check_status(s)
    if s.failed:
        return  # a failed predictor leaves no report to check further
    try:
        if wl.mnb_floor is not None:
            check_mnb_floor(s, wl.mnb_floor)
        if MOCK_LLM in wl.predictors:
            check_mock_llm(s, corpus)
        if wl.endpoint:
            check_endpoint(s, answers, replay=first)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        s.failed.update(p["name"] for p in wl.predictors)
        s.notes.append(f"unreadable run artifacts: {type(exc).__name__}: {exc}")


def llm_invalid_frac(samples: list[Sample], wl: Workload) -> float | None:
    """LLM answers scored invalid / LLM documents classified, first sample."""
    llm = [p["name"] for p in wl.predictors if p.get("type") == "llm"]
    if not llm or not samples or samples[0].failed:
        return None
    runs = [r for name in llm for r in load_report(Path(samples[0].out["run_dir"]), name)["runs"]]
    return sum(r["n_invalid_predictions"] for r in runs) / sum(r["n_items"] for r in runs)


def finish(args, wl: Workload, corpus, answers, samples: list[Sample], root: Path) -> int:
    names = [p["name"] for p in wl.predictors]
    ok = [s for s in samples if s.out is not None]
    for s in ok:
        check_sample(s, wl, corpus, answers, first=s is ok[0])
    sha = check_identical(ok, names) if ok else None
    for s in samples:
        if s.out is None:
            s.failed.update(names)

    attempted = len(names) * len(samples)
    failed = sum(len(s.failed) for s in samples)
    plain = [s.out for s in ok if not s.traced]
    traced = [s.out for s in ok if s.traced]

    print(f"workload {args.workload}  seed {args.seed}  samples {len(plain)} untraced, "
          f"{len(traced)} traced")
    print(f"  corpus docs {len(corpus.texts)}  test docs {wl.test_size}  "
          f"V after min_df {vocab_size(ok, names)}")
    for s in samples:
        for note in s.notes:
            print(f"  CHECK FAILED: {note}")
    print(f"  report_sha256 {sha}")
    run_s = [o["run_s"] for o in plain]
    e2e = {
        "run_s": metric(median_of(run_s), "s"),
        "setup_s": metric(median_of([o["setup_s"] for o in plain]), "s"),
        "peak_rss_mb": metric(median_of([o["peak_rss_mb"] for o in plain]), "MiB"),
    }
    for key, m in e2e.items():
        print(f"  {key:<18} {fmt(m['value'])} {m['unit']}")
    if run_s:
        print(f"  {'':<18} (median of {len(run_s)}; min {min(run_s):.4f}, max {max(run_s):.4f})")
    print(f"  {'error_rate':<18} {failed / attempted:.4f} ratio ({failed} of {attempted} "
          "predictor runs failed)")
    invalid_frac = llm_invalid_frac(ok, wl)
    if invalid_frac is not None:
        print(f"  {'llm_invalid_frac':<18} {invalid_frac:.4f} ratio")

    metrics = e2e
    if args.trace:
        metrics = trace_metrics(traced, run_s)
        for key, m in metrics.items():
            print(f"  {key:<32} {fmt(m['value'])} {m['unit']}")
        stems = traced[0]["stems"] if traced else {}
        print(f"  stemmer inputs: {stems.get('distinct_inputs')} distinct surface tokens -> "
              f"{stems.get('distinct_stems')} distinct stems")
        write_spans(root, args, traced, metrics)

    result = {"correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def trace_metrics(traced: list[dict], untraced_run_s: list[float]) -> dict:
    layers = {}
    for key in traced[0]["layers"] if traced else []:
        layers[key] = metric(median_of([o["layers"][key] for o in traced]), layer_unit(key))
    overhead = None
    if traced and untraced_run_s:
        overhead = median_of([o["run_s"] for o in traced]) - statistics.median(untraced_run_s)
    layers["trace.overhead_s"] = metric(overhead, "s")
    return layers


def write_spans(root: Path, args, traced: list[dict], metrics: dict) -> None:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
               "samples": [{"run_s": o["run_s"], "spans": o["spans"]} for o in traced]}
    path.write_text(json.dumps(payload), "utf-8")
    print(f"  spans written to {path.relative_to(root)}")


def vocab_size(samples: list[Sample], names: list[str]):
    for s in samples:
        for name in names:
            try:
                return load_report(Path(s.out["run_dir"]), name)["diagnostics"]["vocabulary_size"]
            except (KeyError, OSError):
                continue
    return "-"


def fmt(value) -> str:
    return "unmeasured" if value is None else f"{value:.4f}"


if __name__ == "__main__":
    sys.exit(main())
