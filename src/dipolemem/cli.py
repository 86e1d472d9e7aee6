"""Command-line entry point.

    dipolemem run <config> [--outdir DIR]
    dipolemem design <config> [--outdir DIR]
    dipolemem sweep <config> --axis NAME --values V1,V2,... [--workers N]
    dipolemem verify

Success exits 0.  Configuration/parameter problems exit 2, numerical
refusals (instability, resolution, singular transform, unsupported
closed form) exit 3, anything unexpected exits 1; in every failure case
a single machine-readable JSON object {"error": ..., "message": ...}
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (ConfigError, DipolememError, ParameterError,
                     ResolutionError, SingularTransformError, StabilityError,
                     UnsupportedCaseError)
from .scenarios import (TOOLKIT_VERSION, builtin_verify, design_couplings,
                        load_scenario, run_scenario, run_sweep,
                        write_artifacts)

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolemem",
        description="Simulate and design a quantum memory with a "
                    "time-controlled light-matter coupling.")
    parser.add_argument("--version", action="version",
                        version=f"dipolemem {TOOLKIT_VERSION}")
    sub = parser.add_subparsers(dest="op", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default=None)

    p_design = sub.add_parser(
        "design", help="synthesize write/read couplings for a target input")
    p_design.add_argument("config")
    p_design.add_argument("--outdir", default=None)

    p_sweep = sub.add_parser("sweep", help="scan one parameter axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="d, tau_r, tau_w, cooperativity or duration")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--outdir", default=None)

    sub.add_parser("verify", help="run the built-in invariant checks")
    return parser


def _default_outdir(config_path: str) -> str:
    return f"{Path(config_path).stem}_out"


def _parse_values(text: str) -> list[float]:
    vals = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            vals.append(float(piece))
        except ValueError:
            raise ConfigError(f"--values entry {piece!r} is not a number")
    if not vals:
        raise ConfigError("--values is empty")
    return vals


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.op == "verify":
            return 0 if builtin_verify(sys.stdout) else 1

        scn = load_scenario(args.config)
        outdir = args.outdir or _default_outdir(args.config)
        if args.op == "run":
            rec = run_scenario(scn)
        elif args.op == "design":
            rec = design_couplings(scn)
        else:
            rec = run_sweep(scn, args.axis, _parse_values(args.values),
                            workers=args.workers)
        write_artifacts(rec, outdir)
        print(f"{args.op}: wrote {outdir}/result.json "
              f"(scenario {rec.scenario_hash[:12]})")
        return 0
    except (ConfigError, ParameterError) as exc:
        return _fail(exc, _USAGE_EXIT)
    except (StabilityError, ResolutionError, SingularTransformError,
            UnsupportedCaseError) as exc:
        return _fail(exc, _NUMERIC_EXIT)
    except DipolememError as exc:
        return _fail(exc, 1)
    except Exception as exc:  # pragma: no cover - last-resort guard
        return _fail(exc, 1)


def _fail(exc: BaseException, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
