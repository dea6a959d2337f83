"""Run one topofuse CLI command with a span around each call of chosen functions.

usage: python traced_cli.py SPANS_JSON NAMES -- TOPOFUSE_ARGS...

NAMES is a comma-separated list such as `topology.sample_pairs,objective.Adam.step`:
a module of the package, then a function or a class method in it. Each
function is replaced in every topofuse module namespace that binds it (a
function imported with `from .x import f` is bound in several), then
`topofuse.cli.run` runs the command. Every call records a span (name, start,
end, parent span); spans stay in memory and are written to SPANS_JSON, with
the names the program no longer binds, when the command returns. The exit
code is the command's.
"""

import functools
import importlib
import json
import os
import sys
import time

# Pinned before numpy loads, as the CLI does for --threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MODULES = ("cli", "dataio", "preprocess", "topology", "network", "objective", "downstream", "evaluate", "synth")


def pin_threads(argv):
    threads = None
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif a.startswith("--threads="):
            threads = a.split("=", 1)[1]
    if threads is not None:
        for var in THREAD_VARS:
            os.environ[var] = threads


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def install(self, names) -> list:
        """Wrap each named function; returns the names that are not bound."""
        mods = [importlib.import_module(f"topofuse.{m}") for m in MODULES]
        absent = []
        for name in names:
            mod_name, *path = name.split(".")
            owner = importlib.import_module(f"topofuse.{mod_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                absent.append(name)
                continue
            wrapped = self.wrap(name, fn)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
        return absent


def main(argv) -> int:
    spans_path, names, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    pin_threads(cli_args)
    tracer = Tracer()
    absent = tracer.install([n for n in names.split(",") if n])
    import topofuse.cli

    code = topofuse.cli.run(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
