"""Regenerate the pinned answers under perfbench/pinned/.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the root of a checkout.  It records what the engine answers
now, so run it only for a commit whose answers are known to be right
(the benchmark's independent checks and the law suite all pass) and
review the diff of the pinned files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads


def pin_cli() -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = []
    for pool in workloads.CliVerbs.POOLS.values():
        for argv in pool:
            proc = subprocess.run([sys.executable, "-m", "idealforms.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            problem = workloads.contract_violation(proc.returncode, proc.stdout, proc.stderr)
            if problem:
                raise SystemExit(f"{' '.join(argv)}: {problem}\n{proc.stderr}")
            out.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    return out


def pin_schemas() -> dict:
    vocab: dict[str, int] = {}
    codes = []
    for t in workloads.constant_tail_schemas(6):
        line = workloads.schema_answer(workloads.schema_op(t))
        codes.append(vocab.setdefault(line, len(vocab)))
    if len(vocab) > 36 * 36:
        raise SystemExit("too many distinct answers for two base-36 digits")
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    return {
        "about": "answer of schema i is vocab[int(codes[2i:2i+2], 36)]",
        "vocab": list(vocab),
        "codes": "".join(digits[c // 36] + digits[c % 36] for c in codes),
    }


def main() -> None:
    workloads.PINNED.mkdir(exist_ok=True)
    (workloads.PINNED / "cli.json").write_text(json.dumps(pin_cli(), indent=1) + "\n")
    (workloads.PINNED / "schema_corpus.json").write_text(json.dumps(pin_schemas()) + "\n")


if __name__ == "__main__":
    main()
