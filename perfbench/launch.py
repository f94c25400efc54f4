"""Run the grqi command line from the checkout's ``src`` tree.

Untraced, this is exactly the ``grqi`` console script: import
``grqi.cli`` and call its ``main``.  When ``PERFBENCH_SPANS`` names a file,
the span wrappers are installed first and the spans are written to that
file when the command exits; ``PERFBENCH_LAUNCHED`` (a CLOCK_MONOTONIC
reading taken by the parent just before it started this process) then
opens a ``cli.import`` span covering interpreter start and imports.

    python3 perfbench/launch.py gen --n 20 --out problem
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from grqi.cli import main  # noqa: E402


def traced_main(spans_path: str, launched: float) -> None:
    sys.path.insert(0, HERE)
    import tracing

    tracer = tracing.Tracer()
    tracer.add_span("cli.import", launched, tracing.clock())
    tracing.install(tracer)
    try:
        main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    spans = os.environ.get("PERFBENCH_SPANS")
    if spans:
        traced_main(spans, float(os.environ["PERFBENCH_LAUNCHED"]))
    else:
        main()
