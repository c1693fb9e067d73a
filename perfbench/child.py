"""One timed microloc CLI invocation, run as a fresh process by run.py.

Usage: python child.py <experiment> <config> <outdir> <result.json> <trace>

Imports microloc and every layer module, validates the config, optionally
installs the span tracer, records the set-up end time on the shared
monotonic clock, then runs ``microloc.cli.main`` exactly as the
``microloc`` console script does.  The result file holds the set-up end
time, the kernel backend and, when traced, the span summary.
"""

import importlib
import json
import sys
import time


def main(argv) -> int:
    experiment, config, outdir, result_path, trace = argv
    import microloc.cli as cli
    from microloc import backend
    from tracer import LAYERS, Tracer

    for layer in LAYERS:
        importlib.import_module(f"microloc.{layer}")
    with open(config) as fh:
        errors = cli.validate_config(json.load(fh), experiment)
    if errors:
        print(json.dumps({"errors": errors}))
        return 2
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    setup_done = time.monotonic()

    rc = cli.main([experiment, "--config", config, "--out", outdir])

    result = {"setup_done": setup_done, "compiled": bool(backend.COMPILED)}
    if tracer is not None:
        result.update(tracer.summary())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
