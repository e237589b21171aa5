"""Command-line entry points.

Subcommands:

* ``reproduce <figN>``    run a built-in preset and write its artifact set
* ``dump-preset <figN>``  print (or save) a preset as editable JSON
* ``simulate``            event-level / sampled export for a config file
* ``spectrum``            spectrum CSVs and a report without analyses
* ``analyze``             spectrum plus the analysis report

``--scale`` divides horizon and realization count, ``--full`` enables the
long horizon-1e8 run of fig4, ``--workers`` caps parallelism (processes
over realizations, or, in a run of one realization, threads over the
frequencies of the event-exact transform or two threads over the blocks
of the sampled signal's in-place FFT; results do not depend on it),
``--seed`` sets the seed of every run, of a preset and of a config file
alike.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .presets import DEFAULT_SEED, PRESET_NAMES, preset, spec_from_dict, spec_to_dict
from .runner import run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="processes over realizations, or, in a run of one realization, "
        "threads over the event-exact frequencies or two threads over the "
        "sampled FFT (default: CPU count; results do not depend on it)",
    )


def _add_preset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figure", choices=PRESET_NAMES)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="divide horizon and realizations"
    )
    parser.add_argument(
        "--full", action="store_true", help="include the gated long run (fig4)"
    )


def _build_spec(args):
    """The spec of a preset or a config file; ``--seed`` sets every
    run's seed on both paths."""
    if args.command in ("reproduce", "dump-preset"):
        seed = DEFAULT_SEED if args.seed is None else args.seed
        return preset(args.figure, scale=args.scale, seed=seed, full=args.full)
    with open(args.config) as fh:
        d = json.load(fh)
    if args.seed is not None:
        for run_dict in d.get("runs", ()):
            run_dict["seed"] = args.seed
    return spec_from_dict(d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trapnoise",
        description="Trapping-detrapping flicker-noise experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run a built-in preset")
    _add_preset_args(p)
    _add_common(p)

    p = sub.add_parser("dump-preset", help="emit a preset as editable JSON")
    _add_preset_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="file path (default: stdout)")

    for name, help_text in (
        ("simulate", "write event-level (and sampled) exports"),
        ("spectrum", "write spectrum CSVs and a report without analyses"),
        ("analyze", "write spectrum CSVs plus the analysis report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        _add_common(p)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # surface a diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    spec = _build_spec(args)
    if args.command == "dump-preset":
        text = json.dumps(spec_to_dict(spec), indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "spectrum":
        spec = dataclasses.replace(spec, analyses=())
    artifacts = run(
        spec, args.out, workers=args.workers, events_csv=args.command == "simulate"
    )
    for role in sorted(artifacts):
        print(f"{role}: {artifacts[role]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
