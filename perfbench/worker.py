"""One measured sample: a fresh interpreter runs one experiment, as `zsbench run` does.

    python perfbench/worker.py CONFIG RUN_ID OUT_JSON [--trace]

The clock starts before zsbench is imported, so ``setup_s`` covers importing
``zsbench.cli`` and loading the config. ``run_s`` covers ``run_experiment``
from config to artifacts on disk. With ``--trace`` the run is traced (see
tracing.py) and the spans are written out with the result. The zsbench
package must be importable, e.g. through PYTHONPATH=src.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time


def main(argv: list[str]) -> int:
    config_path, run_id, out_path = argv[:3]
    traced = "--trace" in argv[3:]

    start = time.perf_counter()
    import zsbench.cli  # noqa: F401 - what every `zsbench run` imports
    from zsbench.orchestrator import load_config, run_experiment

    config = load_config(config_path)
    setup_s = time.perf_counter() - start

    out: dict = {"setup_s": setup_s}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            result = run_experiment(config, run_id=run_id)
            run_s = time.perf_counter() - t0
        out["layers"] = tracer.summary(run_s, threading.get_ident())
        out["stems"] = tracer.stem_stats()
        out["spans"] = tracer.spans
    else:
        t0 = time.perf_counter()
        result = run_experiment(config, run_id=run_id)
        run_s = time.perf_counter() - t0

    out["run_s"] = run_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["run_dir"] = str(result.run_dir)
    out["predictors"] = {
        name: {"status": res.status, "error": res.error} for name, res in result.predictors.items()
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
