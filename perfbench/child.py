"""One fresh-process run: import the package, optionally trace, call cli.main.

Usage: python3 child.py SRC RESULT.json [--trace] [-- CLI ARGS...]

Without CLI args the process only measures set-up (import plus backend
selection).  The result file gets set-up and call times, the CLI exit code,
peak resident memory, library versions and, when traced, the spans.
"""

import json
import os
import platform
import resource
import sys
import time


def main(argv) -> int:
    src, result_path, rest = argv[0], argv[1], argv[2:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    cli_args = rest[1:] if rest and rest[0] == "--" else []
    sys.path.insert(0, src)

    start = time.perf_counter()
    import kinetic_em

    backend = kinetic_em.backend_name()
    setup_s = time.perf_counter() - start

    import mpmath
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "backend": backend,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
    }
    if cli_args:
        from kinetic_em import cli

        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            result["patched"] = tracing.install(tracer)
        begin = time.perf_counter()
        result["exit_code"] = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - begin
        if tracer is not None:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
