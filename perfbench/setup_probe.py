"""Time one fresh process's set-up: import fourval, build systems and presets.

    python3 setup_probe.py SRC_DIR [system:NAME | preset:NAME]...

Prints the seconds taken, measured inside the process from just before the
import, as its only output line.  Interpreter start-up is not counted.
"""

import sys
import time


def main(argv: list[str]) -> int:
    src, targets = argv[0], argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from fourval import structures, systems

    for target in targets:
        kind, _, name = target.partition(":")
        if kind == "system":
            systems.system(name)
        elif kind == "preset":
            structures.preset_structure(name)
        else:
            print(f"unknown set-up target {target!r}", file=sys.stderr)
            return 2
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
