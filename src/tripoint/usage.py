"""The argparse parser of the command table, which only help and usage errors load.

``cli.main`` reads a request in its plain form itself; any other argv goes
to the parser made here, which prints help and usage errors.  So only
those load this module, and with it ``argparse``, ``gettext`` and
``locale``.  ``cli.build_parser`` passes its table, ``cli._COMMANDS``, in.
"""

from __future__ import annotations

import argparse
from collections.abc import Mapping
from typing import Any


def build_parser(commands: Mapping[str, Any]) -> argparse.ArgumentParser:
    """The argparse parser of ``commands``, a table of ``cli._Command`` by name."""
    parser = argparse.ArgumentParser(
        prog="tripoint",
        description="Triple point obstruction checks for candidate principal graph pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in commands.items():
        p_command = sub.add_parser(name, help=command.help)
        groups = [(p_command, command.options)]
        if command.one_of:
            groups.append((p_command.add_mutually_exclusive_group(required=True), command.one_of))
        for group, options in groups:
            for option in options:
                keywords = option._asdict()
                group.add_argument(keywords.pop("flag"), **keywords)
        if command.files:
            p_command.add_argument("files", nargs="+", metavar="FILE")
        p_command.set_defaults(handler=command.handler)
    return parser
