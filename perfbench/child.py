"""One benchmark process: a traced CLI run, or the audit-dp library calls.

    python3 perfbench/child.py [--trace SPANS.npz] cli <dpmech cli args...>
    python3 perfbench/child.py [--trace SPANS.npz] audit --seed S --scale full --out OUT.json
    python3 perfbench/child.py audit-build --seed S --scale full

Untraced CLI runs do not come here: they run ``python3 -m dpmech.cli`` as a
user would.  With ``--trace`` the span wrappers are installed before any
dpmech code runs and the spans are saved when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import audit  # noqa: E402
import spans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", default=None, help="write spans to this .npz")
    parser.add_argument("mode", choices=("cli", "audit", "audit-build"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    if args.mode == "cli":
        import dpmech.cli

        code = dpmech.cli.main(args.rest)
    else:
        sub = argparse.ArgumentParser(prog=f"child.py {args.mode}")
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--scale", required=True, choices=sorted(audit.SHAPES))
        sub.add_argument("--out")
        opts = sub.parse_args(args.rest)
        instances = [audit.build(t) for t in audit.make_tables(opts.seed, opts.scale)]
        code = 0
        if args.mode == "audit":
            if tracer is not None:
                for env, F in instances:
                    spans.wrap_instance(tracer, "bench", env, F)
                records = tracer.wrap("bench.audit_op", audit.run_checks)(instances)
            else:
                records = audit.run_checks(instances)
            Path(opts.out).write_text(json.dumps(records))

    if tracer is not None:
        tracer.save(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
