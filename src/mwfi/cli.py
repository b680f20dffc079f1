"""Command-line entry point.

    mwfi calibrate|measure|classify|dynamic|sweep --config <path> [--seed N] [--out DIR]

--config takes a file path or the name of a shipped preset (fig3a, fig5a,
fig6f, ...). Exit code 0 on success, 2 on configuration errors, 1 on
runtime failures; failures print a one-line reason to stderr.
"""

import argparse
import sys
from pathlib import Path

from .config import MODES, ConfigError, RunConfig
from .harness import run
from .presets import preset_path, list_presets


def _load_config(name_or_path: str) -> RunConfig:
    path = Path(name_or_path)
    if path.exists():
        return RunConfig.from_file(path)
    builtin = preset_path(name_or_path)
    if builtin is not None:
        return RunConfig.from_file(builtin)
    names = ", ".join(list_presets())
    raise ConfigError(f"config {name_or_path!r} is neither a file nor a preset (presets: {names})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mwfi",
        description="Microwave frequency identification simulator and estimators",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        # the subcommand is authoritative over the file's mode key
        cfg.values["mode"] = args.mode
        report = run(cfg, seed=args.seed, out_dir=args.out)
    except ConfigError as exc:
        print(f"mwfi: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"mwfi: error: {exc}", file=sys.stderr)
        return 1

    for line in report.lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
