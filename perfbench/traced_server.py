"""Run the quantile service in one process with its layers traced.

Usage::

    python3 perfbench/traced_server.py <trace-file> [repro serve args...]

Installs :mod:`tracing` wrappers around the public functions of every
service layer (as ``repro.service.server`` binds them), then hands the
remaining arguments to ``repro.service.runner.main``; pass
``--workers 1`` so the whole server runs in this process.  The trace is
written when the server exits, and also on ``SIGUSR1`` so that a server
about to be killed with ``SIGKILL`` can be read first.
"""

from __future__ import annotations

import signal
import sys
import threading

from tracing import Tracer, install_service


def main(argv: list[str]) -> int:
    out, server_args = argv[0], argv[1:]
    tracer = Tracer()
    install_service(tracer)

    def on_usr1(_signum: int, _frame: object) -> None:
        # Dump from a thread: the handler may interrupt a span record
        # that holds the tracer lock.
        threading.Thread(target=tracer.dump, args=(out,)).start()

    signal.signal(signal.SIGUSR1, on_usr1)
    from repro.service import runner

    try:
        return runner.main(server_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
