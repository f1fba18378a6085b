"""Command-line interface.

    povtrack track <doc.json> [--registry FILE] [--policy MODE] [--trace]
                   [--out FILE]
    povtrack eval <doc.json> [--registry FILE] [--policy MODE] [--json]
    povtrack validate <doc.json> [--registry FILE]

``track`` prints one tab-separated line per sentence (id, verdict,
characters); ``--trace`` interleaves a step-by-step explanation.
``eval`` scores a gold-labelled document and prints breakdown tables
(or a JSON object with ``--json``).  ``validate`` checks a document
against the schema and the registry, printing errors and warnings.

The registry defaults to the built-in categories; ``--registry`` or the
``POVTRACK_REGISTRY`` environment variable point at an override file.

Exit status: 0 on success, 1 on parse/validation/gold-label problems,
2 on bad command lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys

from .corpus import load_document, load_registry, validate_gold
from .engine import Engine, SignificancePolicy
from .evaluation import evaluate
from .model import ESCAPE_SEPARATORS, PovTrackError
from .trace import interpretation_line, render_step

REGISTRY_ENV = "POVTRACK_REGISTRY"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povtrack",
        description="Track psychological point of view over annotated "
                    "narrative sentence streams.")
    sub = parser.add_subparsers(dest="command", required=True)
    # arguments that several commands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("document", help="annotated document JSON")
    common.add_argument("--registry", help="category registry JSON "
                        f"(default: ${REGISTRY_ENV} or built-ins)")
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument("--policy",
                        choices=[p.value for p in SignificancePolicy],
                        default=SignificancePolicy.ANY_PREVIOUS_SC.value,
                        help="when a character's subjective past qualifies "
                        "their private-state actions (default: %(default)s)")

    track = sub.add_parser("track", parents=[common, policy],
                           help="interpret every sentence")
    track.add_argument("--trace", action="store_true",
                       help="interleave a step-by-step trace")
    track.add_argument("--out", help="write output here instead of stdout")

    ev = sub.add_parser("eval", parents=[common, policy],
                        help="score against gold labels")
    ev.add_argument("--json", action="store_true",
                    help="print a machine-readable report")

    sub.add_parser("validate", parents=[common],
                   help="check a document file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a command's objects hold no reference cycles and live until it ends,
    # so collections would only rescan them; reference counts free them
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        path = args.registry or os.environ.get(REGISTRY_ENV)
        registry = load_registry(path) if path else None
        if args.command == "track":
            return _cmd_track(args, registry)
        if args.command == "eval":
            return _cmd_eval(args, registry)
        return _cmd_validate(args, registry)
    except (PovTrackError, OSError) as exc:
        # one line, even when the message quotes an id that breaks lines,
        # and a lone surrogate it quotes as its escape, on any stream
        print(f"povtrack: error: {exc}".translate(ESCAPE_SEPARATORS).encode(
            "utf-8", "backslashreplace").decode(), file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


def _cmd_track(args, registry) -> int:
    document = load_document(args.document, registry)
    engine = Engine(policy=SignificancePolicy(args.policy))
    with (_overwritten(args.out) if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        # each step as it is rendered: a trace block, a blank line apart
        blank = ""
        for step in engine.track_document(document):
            if args.trace:
                out.write(blank + "\n".join(render_step(step)) + "\n")
                blank = "\n"
            if step.interpretation is not None:
                out.write(interpretation_line(step) + "\n")
    return 0


@contextlib.contextmanager
def _overwritten(path):
    """``path`` opened for text, written over in place and cut at the end
    where the writes stopped: truncating on open would have the kernel free
    the old file's blocks first, which on some file systems costs more than
    the whole write."""
    with open(path, "w", encoding="utf-8", opener=lambda name, flags:
              os.open(name, flags & ~os.O_TRUNC, 0o666)) as out:
        try:
            yield out
        finally:
            try:
                out.flush()
            finally:  # where the file system stopped the writes, if it did
                fd = out.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _cmd_eval(args, registry) -> int:
    document = load_document(args.document, registry)
    policy = SignificancePolicy(args.policy)
    report = evaluate(document, Engine(policy=policy))
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.render())
    return 0


def _cmd_validate(args, registry) -> int:
    document = load_document(args.document, registry)
    for warning in validate_gold(document):
        print(f"warning: {warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
