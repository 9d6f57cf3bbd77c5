#!/usr/bin/env python3
"""Repo lint: header self-containment + format coverage + syscall containment.

Four cheap, mechanical checks that have each caught real bugs in this tree:

1. **Header self-containment** — every public header under ``src/`` must
   compile as its own translation unit.  The repo has already shipped two
   missing-include bugs (``<vector>`` in codec/stream, ``<limits>`` in
   metrics) that only bit users including a header in a fresh context; this
   makes the property mechanical.

2. **Format coverage** — every on-disk format kind declared in ``src/``
   (the ``constexpr char kKind[4]`` next to its ``write_magic`` call) must
   have a registered version-gate test: a test that bumps the version field
   of a well-formed buffer and expects ``SerializeError``.  A new format
   fails this lint until its gate test is added and registered in
   ``FORMAT_GATES`` below — misparsing "v2 field soup as v1" is the exact
   class of bug the gates exist to block.

3. **SIMD containment** — ``<immintrin.h>`` (and kin) may only appear in the
   translation units listed in ``SIMD_TUS``, each of which must keep its
   ``NC_SIMD_BUILD_*`` guard macro.  The build passes no global ``-march``
   flags, so an intrinsics include anywhere else is either dead code behind
   an always-false ``#ifdef`` (the bug the runtime dispatcher replaced) or a
   TU that breaks on non-x86; headers may never include intrinsics because
   any TU could pull them in.

4. **No affinity** — thread-affinity syscalls (``pthread_setaffinity_np``,
   ``sched_getaffinity``, ``cpu_set_t``, ...) may not appear anywhere under
   ``src/``.  The library leaves thread placement to the OS scheduler
   (pinning measured no gain on the benchmark host), and an affinity call
   would also break non-Linux builds.

Exit status 0 iff all checks pass.  Run locally with::

    python3 tools/lint/check_headers.py            # from the repo root
    cmake --build build --target check_headers     # same, via CMake
"""
from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

# Registered version-gate tests: format kind -> (test file, test regex).
# The regex must match the TEST(...) declaration line in the file.
FORMAT_GATES = {
    "CKPT": ("tests/test_corrupt_io.cpp",
             r"TEST\(CorruptCheckpoint,\s*UnknownVersionRejected\)"),
    "CWDG": ("tests/test_corrupt_io.cpp",
             r"TEST\(CorruptWedge,\s*UnknownVersionRejected\)"),
    "WDGS": ("tests/test_corrupt_io.cpp",
             r"TEST\(CorruptDataset,\s*UnknownVersionRejected\)"),
    "WENV": ("tests/test_codec_arena.cpp",
             r"TEST\(WedgeEnvelope,\s*DeserializeRejectsVersionBump\)"),
    "SPIL": ("tests/test_spill.cpp",
             r"TEST\(SpillReader,\s*UnknownVersionRejected\)"),
}

KIND_RE = re.compile(
    r"char\s+\w*[Kk]ind\[4\]\s*=\s*\{\s*'(.)'\s*,\s*'(.)'\s*,\s*'(.)'\s*,\s*'(.)'\s*\}")

# The only TUs allowed to include intrinsics headers, with the guard macro
# each must test (the macro is defined per-file by src/CMakeLists.txt only
# when the compiler accepted the matching -m flags; a flagless build of the
# same file must fall back to its portable stub).
SIMD_TUS = {
    "src/core/simd_avx2.cpp": "NC_SIMD_BUILD_AVX2",
    "src/core/simd_avx512.cpp": "NC_SIMD_BUILD_AVX512",
    "src/util/half_f16c.cpp": "NC_SIMD_BUILD_F16C",
}

INTRIN_RE = re.compile(
    r'^\s*#\s*include\s*[<"](?:immintrin|x86intrin|emmintrin|smmintrin|'
    r'tmmintrin|nmmintrin|wmmintrin|avxintrin|xmmintrin|pmmintrin)\.h[>"]',
    re.MULTILINE)

# Thread-affinity syscalls: none are allowed under src/.
AFFINITY_RE = re.compile(
    r"\b(?:pthread_(?:set|get)affinity_np|sched_(?:set|get)affinity|"
    r"cpu_set_t|CPU_ZERO|CPU_SET\b|CPU_ISSET)")


def find_headers(src_dir: str) -> list[str]:
    headers = []
    for root, _dirs, files in os.walk(src_dir):
        for name in sorted(files):
            if name.endswith((".hpp", ".h")):
                headers.append(os.path.join(root, name))
    return headers


def check_header(cxx: str, repo: str, header: str) -> tuple[str, str]:
    """Compile `#include "<header>"` as a standalone TU; '' means clean."""
    rel = os.path.relpath(header, os.path.join(repo, "src"))
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", delete=False) as tu:
        tu.write(f'#include "{rel}"\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [cxx, "-std=c++20", "-fsyntax-only",
             "-I", os.path.join(repo, "src"), "-I", repo,
             "-Wall", "-Wextra", tu_path],
            capture_output=True, text=True)
        return rel, "" if proc.returncode == 0 else proc.stderr.strip()
    finally:
        os.unlink(tu_path)


def check_self_containment(cxx: str, repo: str) -> int:
    headers = find_headers(os.path.join(repo, "src"))
    failures = 0
    with concurrent.futures.ThreadPoolExecutor() as pool:
        for rel, err in pool.map(
                lambda h: check_header(cxx, repo, h), headers):
            if err:
                failures += 1
                print(f"FAIL header not self-contained: src/{rel}\n{err}\n",
                      file=sys.stderr)
    print(f"self-containment: {len(headers) - failures}/{len(headers)} "
          f"headers compile standalone")
    return failures


def find_format_kinds(repo: str) -> dict[str, str]:
    """Discover every on-disk format kind declared under src/."""
    kinds: dict[str, str] = {}
    for root, _dirs, files in os.walk(os.path.join(repo, "src")):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp", ".h")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                for match in KIND_RE.finditer(f.read()):
                    kinds["".join(match.groups())] = os.path.relpath(
                        path, repo)
    return kinds


def check_format_gates(repo: str) -> int:
    failures = 0
    kinds = find_format_kinds(repo)
    if not kinds:
        print("FAIL: no format kinds discovered under src/ — the lint's "
              "kind regex no longer matches the tree", file=sys.stderr)
        return 1
    for kind, declared_in in sorted(kinds.items()):
        gate = FORMAT_GATES.get(kind)
        if gate is None:
            failures += 1
            print(f"FAIL format '{kind}' ({declared_in}) has no registered "
                  f"version-gate test: add a bump-the-version test and "
                  f"register it in FORMAT_GATES "
                  f"(tools/lint/check_headers.py)", file=sys.stderr)
            continue
        test_file, test_re = gate
        path = os.path.join(repo, test_file)
        try:
            with open(path, encoding="utf-8") as f:
                content = f.read()
        except OSError:
            failures += 1
            print(f"FAIL format '{kind}': registered test file {test_file} "
                  f"does not exist", file=sys.stderr)
            continue
        if not re.search(test_re, content):
            failures += 1
            print(f"FAIL format '{kind}': {test_file} no longer contains a "
                  f"test matching {test_re}", file=sys.stderr)
    stale = sorted(set(FORMAT_GATES) - set(kinds))
    if stale:
        failures += len(stale)
        print(f"FAIL stale FORMAT_GATES entries (format no longer in src/): "
              f"{', '.join(stale)}", file=sys.stderr)
    print(f"format gates: {len(kinds)} formats discovered "
          f"({', '.join(sorted(kinds))}), {failures} uncovered")
    return failures


def check_simd_containment(repo: str) -> int:
    failures = 0
    offenders: list[str] = []
    for root, _dirs, files in os.walk(os.path.join(repo, "src")):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp", ".h")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, repo).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                content = f.read()
            has_intrin = bool(INTRIN_RE.search(content))
            if rel in SIMD_TUS:
                macro = SIMD_TUS[rel]
                if not has_intrin:
                    failures += 1
                    print(f"FAIL {rel}: registered as a SIMD TU but includes "
                          f"no intrinsics header (update SIMD_TUS if it was "
                          f"de-vectorized)", file=sys.stderr)
                if macro not in content:
                    failures += 1
                    print(f"FAIL {rel}: must guard its intrinsics on "
                          f"defined({macro}) so a flagless build degrades to "
                          f"the portable stub", file=sys.stderr)
            elif has_intrin:
                failures += 1
                offenders.append(rel)
                print(f"FAIL {rel}: intrinsics header outside the dispatch "
                      f"TUs ({', '.join(sorted(SIMD_TUS))}); route the kernel "
                      f"through core/simd_dispatch.hpp instead", file=sys.stderr)
    missing = [tu for tu in SIMD_TUS
               if not os.path.exists(os.path.join(repo, tu))]
    if missing:
        failures += len(missing)
        print(f"FAIL SIMD_TUS entries missing from tree: "
              f"{', '.join(sorted(missing))}", file=sys.stderr)
    print(f"simd containment: intrinsics confined to {len(SIMD_TUS)} "
          f"dispatch TUs, {failures} violation(s)")
    return failures


def check_affinity_containment(repo: str) -> int:
    failures = 0
    for root, _dirs, files in os.walk(os.path.join(repo, "src")):
        for name in sorted(files):
            if not name.endswith((".cpp", ".hpp", ".h")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, repo).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                if AFFINITY_RE.search(f.read()):
                    failures += 1
                    print(f"FAIL {rel}: thread-affinity syscall under src/; "
                          f"workers are not pinned, the OS scheduler places "
                          f"them", file=sys.stderr)
    print(f"affinity containment: no affinity syscalls allowed under src/, "
          f"{failures} violation(s)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=os.getcwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--cxx", default=os.environ.get("CXX", "g++"),
                        help="C++ compiler for the syntax-only checks")
    args = parser.parse_args()
    repo = os.path.abspath(args.repo)
    failures = check_self_containment(args.cxx, repo)
    failures += check_format_gates(repo)
    failures += check_simd_containment(repo)
    failures += check_affinity_containment(repo)
    if failures:
        print(f"check_headers: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check_headers: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
