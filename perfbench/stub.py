"""Loopback chat-completions endpoint with a scripted mix of messy replies.

    python perfbench/stub.py ANSWERS_JSON

Binds 127.0.0.1 on an ephemeral port, prints ``PORT <n>`` and serves until
its standard input closes (so it cannot outlive the benchmark) or it is
terminated. ANSWERS_JSON holds the label the stub intends for each document
id, the batch size, and which ids it always answers with a label outside the
schema.

Each reply is a pure function of (request body, how many times that body was
seen since the last reset), never of a global request counter, so the mix
does not depend on how concurrent requests interleave. A full batch gets one
of: HTTP 503, clean JSON, prose-wrapped JSON, case-variant labels, dropped
indices (forcing a re-ask) or about 1.5k unbalanced ``{`` before the JSON.
The choice depends only on the batch number and the sighting, so every seed
sees the same mix. Partial batches (re-asks) get clean JSON.

    POST /v1/chat/completions   the endpoint
    POST /reset                 forget sightings and counts
    GET  /stats                 {"requests": n, "by_status": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_LINE_RE = re.compile(r"^(\d+)\.\s", re.MULTILINE)
DELAY_S = 0.03  # fixed service time per request
INVALID_LABEL = "Unknown"
LONG_PREFIX = "{" * 1500
# reply kinds for full batches and the cumulative share of each
KINDS = (("503", 0.05), ("clean", 0.35), ("prose", 0.55), ("case", 0.70), ("drop", 0.95),
         ("long", 1.0))


def _unit(*key) -> float:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def kind_for(batch_no: int, sighting: int) -> str:
    """Reply kind for a full batch; never two 503s in a row, so retries succeed."""
    u = _unit(batch_no, sighting)
    for name, upto in KINDS:
        if u < upto:
            break
    if name == "503" and sighting > 0 and kind_for(batch_no, sighting - 1) == "503":
        return "clean"
    return name


class Script:
    """Replies and bookkeeping; all state changes happen under one lock."""

    def __init__(self, answers: dict):
        self.intended: list[str] = answers["intended"]
        self.invalid = set(answers["invalid_ids"])
        self.batch_size: int = answers["batch_size"]
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: dict[str, int] = {}
            self.by_status: dict[str, int] = {}

    def stats(self) -> dict:
        with self.lock:
            return {"requests": sum(self.by_status.values()), "by_status": dict(self.by_status)}

    def reply(self, raw_body: bytes) -> tuple[int, dict]:
        key = hashlib.sha256(raw_body).hexdigest()
        with self.lock:
            sighting = self.seen.get(key, 0)
            self.seen[key] = sighting + 1
        body = json.loads(raw_body)
        user = next(m["content"] for m in body["messages"] if m["role"] == "user")
        ids = [int(i) for i in _LINE_RE.findall(user)]
        batch_no = ids[0] // self.batch_size
        first = batch_no * self.batch_size
        full = ids == list(range(first, min(first + self.batch_size, len(self.intended))))
        kind = kind_for(batch_no, sighting) if full else "clean"
        time.sleep(DELAY_S)
        status = 503 if kind == "503" else 200
        with self.lock:
            self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
        if status != 200:
            return status, {"error": {"message": "overloaded", "type": "server_error"}}
        text = self._content(ids, kind)
        return 200, {
            "id": f"stub-{key[:12]}-{sighting}",
            "object": "chat.completion",
            "model": body.get("model", ""),
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}],
            "usage": {"prompt_tokens": len(user) // 4, "completion_tokens": len(text) // 4},
        }

    def _content(self, ids: list[int], kind: str) -> str:
        answers = {}
        for pos, i in enumerate(ids):
            if kind == "drop" and pos % 5 == 2:
                continue
            label = INVALID_LABEL if i in self.invalid else self.intended[i]
            if kind == "case":
                label = (label.upper(), label.lower(), f" {label} ")[pos % 3]
            answers[str(i)] = label
        payload = json.dumps(answers)
        if kind in ("prose", "drop"):
            return f"Sure! Here are the categories:\n{payload}\nLet me know if you need more."
        if kind == "long":
            return f"{LONG_PREFIX} Sorry, the format slipped. Here it is: {payload}"
        return payload


def make_handler(script: Script):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        wbufsize = 1 << 16  # one write per response: headers and body in one segment

        def log_message(self, *args) -> None:  # keep stderr quiet
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self) -> None:
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                script.reset()
                self._send(200, {"ok": True})
            elif self.path == "/v1/chat/completions":
                if not self.headers.get("Authorization", "").startswith("Bearer "):
                    self._send(401, {"error": "missing key"})
                    return
                self._send(*script.reply(raw))
            else:
                self._send(404, {"error": "not found"})

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._send(200, script.stats())
            else:
                self._send(404, {"error": "not found"})

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("answers")
    args = parser.parse_args()
    with open(args.answers, encoding="utf-8") as fh:
        script = Script(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(script))
    server.daemon_threads = True

    def stop_on_eof() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
