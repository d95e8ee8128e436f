"""Streaming scoring service: newline-delimited requests in, responses out."""

from __future__ import annotations

import logging
import sys
from typing import IO

from ..config import DEFAULT_CONFIG, EngineConfig
from .engine import handle_request_line
from .wire import dump_line

log = logging.getLogger(__name__)


def run_service(
    config: EngineConfig | None = None,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
) -> int:
    """Serve requests until end-of-input; returns the process exit code.

    Responses are written one per request line, in request order. Blank lines
    are ignored; syntactically invalid lines produce error responses and the
    service keeps going. Only transport-level failures terminate with a
    nonzero code.
    """
    source = stdin if stdin is not None else sys.stdin
    sink = stdout if stdout is not None else sys.stdout
    config = config or DEFAULT_CONFIG
    handled = 0
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            response = handle_request_line(line, config)
            sink.write(dump_line(response))
            sink.write("\n")
            sink.flush()
            handled += 1
    except (BrokenPipeError, OSError) as exc:
        log.error("transport failure after %d responses: %s", handled, exc)
        return 1
    log.info("served %d responses", handled)
    return 0
