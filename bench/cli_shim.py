"""Run the ``cate-al`` command line exactly as its console script does.

With ``BENCH_TRACE_DIR`` set, the layer boundaries are traced first; pool
workers forked by ``cate-al run --jobs N`` inherit the wrappers and append
their spans to the same directory.
"""

import os
import sys

if __name__ == "__main__":
    sink = os.environ.get("BENCH_TRACE_DIR")
    if sink:
        from tracer import Tracer

        Tracer(sink).install()
    from cate_al.cli import main

    sys.exit(main())
