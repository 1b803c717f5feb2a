"""Run ``groupwigner.cli.main`` in a fresh process, as the console command does.

Usage: ``python3 cli_child.py SPANS ARGV...``.  With ``SPANS`` other than
``-`` the layer recorder is installed before the CLI runs and its spans are
written to that file when the CLI returns.
"""

import json
import sys

import checkout


def main(spans_path: str, argv: list) -> int:
    package = checkout.use_source_tree()
    import groupwigner.cli

    if spans_path == "-":
        return groupwigner.cli.main(argv)
    from recorder import Recorder

    recorder = Recorder(package)
    recorder.begin_op(0)
    try:
        return recorder.layers.cli.main(argv)
    finally:
        recorder.end_op()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
