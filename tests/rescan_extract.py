"""Reference JSON payload extractor, kept as an oracle for the linear one.

This is `zsbench.gateway.parsing.extract_json_payload` as it was before it
became one pass: it restarts a string-aware brace scan at every `{`, so an
unbalanced reply costs time quadratic in its length. Both must return the
same (payload, stripped) pair, and raise PayloadError on the same inputs.
"""

from __future__ import annotations

from zsbench.gateway.parsing import PayloadError


def extract_json_payload(raw: str) -> tuple[str, bool]:
    """Return (first balanced top-level {...} region, prose_stripped).

    Scans candidate opening braces left to right, tracking JSON string
    boundaries and escapes so braces inside strings don't count.
    """
    for start in range(len(raw)):
        if raw[start] != "{":
            continue
        depth = 0
        in_string = False
        escaped = False
        for pos in range(start, len(raw)):
            ch = raw[pos]
            if escaped:
                escaped = False
                continue
            if in_string:
                if ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    payload = raw[start : pos + 1]
                    stripped = bool(raw[:start].strip()) or bool(raw[pos + 1 :].strip())
                    return payload, stripped
        # unbalanced from this opening brace; try the next one
    raise PayloadError("no JSON object found in response")
