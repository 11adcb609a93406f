#!/usr/bin/env python3
"""Layering lint: enforces the include-direction contract of the
planner/executor split.

The core pipeline is layered facade -> planner -> plan IR <- executor: the
plan IR is the boundary object, the planner decides, the executor runs, and
only the UcudnnHandle facade may see both sides. Frameworks sit on top of the
facade and must never reach under it to mcudnn. C++ cannot express "this
translation unit must not include that header", so the contract is enforced
here:

  1. src/core/plan.{h,cc} must not include core/planner.h, core/executor.h
     or core/ucudnn.h (the IR depends only on the data model).
  2. src/core/executor.{h,cc} must not include core/planner.h or
     core/ucudnn.h (execution-time policy arrives via the ReplanFn callback).
  3. src/core/planner.{h,cc} must not include core/executor.h or
     core/ucudnn.h (the planner hands plans down, never calls up).
  4. src/frameworks/** must not include mcudnn/ headers directly — all
     convolution traffic goes through the core/ucudnn.h facade.
  5. src/telemetry/** is a leaf: every library may include it, but its own
     quoted includes must stay inside telemetry/ (system headers via <> are
     fine), with one exception — common/thread_annotations.h, the locking
     leaf below. Instrumentation must never create a cycle back into the
     layers it observes.
  6. src/common/thread_annotations.h is the locking leaf: includable from
     everywhere (including telemetry), it must itself include only system
     headers — no quoted project-local includes at all.
  7. src/serve/** sits on TOP of the facade: it may include serve/, core/,
     kernels/, common/ and telemetry/ headers, nothing else (no mcudnn/, no
     frameworks/ — serving talks to the library through UcudnnHandle only).
  8. Nothing outside src/serve includes serve/ headers back: the serving
     front-end is a top layer, not a dependency of the library.
  9. src/frameworks/ops.{h,cc} (the host layer ops both frameworks call)
     includes neither frameworks/caffepp/ nor frameworks/tfmini/.
 10. The frameworks are siblings: src/frameworks/caffepp/** never includes
     frameworks/tfmini/ and src/frameworks/tfmini/** never includes
     frameworks/caffepp/ — code they share lives in frameworks/ops.h.
 11. The algorithm catalog is the only place that names algorithms: under
     src/, only src/kernels/registry.{h,cc} may spell a fwd_algo::,
     bwd_data_algo:: or bwd_filter_algo:: constant. Everything else asks
     the catalog (name, support, workspace, cost, efficiency) by id.

Usage:  check_layering.py [--self-test] [ROOT]

Exits non-zero when findings exist. Suppression: append
// layering: allow  on the offending line or the line above it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SUPPRESS = "layering: allow"

INCLUDE = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)[">]', re.MULTILINE)

# The telemetry leaf rule is an allowlist, not a forbidden-prefix list: any
# quoted (project-local) include from src/telemetry must itself be a
# telemetry/ header — or the locking leaf, which telemetry needs for its own
# mutexes. Angle includes are system headers and always allowed.
TELEMETRY_LEAF = re.compile(r"^src/telemetry/.+\.(h|cc)$")
TELEMETRY_LEAF_EXTRA = ("common/thread_annotations.h",)

# The locking leaf itself: includable from everywhere, so it may depend on
# nothing project-local (it reads its env gate with std::getenv directly).
LOCKING_LEAF = re.compile(r"^src/common/thread_annotations\.h$")

# The serving front-end is a TOP layer (rule 7): an allowlist of the quoted
# include prefixes it may use. Everything else — mcudnn/, frameworks/,
# device/ internals — must be reached through the core/ucudnn.h facade.
SERVE_LAYER = re.compile(r"^src/serve/.+\.(h|cc)$")
SERVE_ALLOWED_PREFIXES = (
    "serve/",
    "core/",
    "kernels/",
    "common/",
    "telemetry/",
)

# (file-selector, forbidden-include prefixes, rationale) — selectors are
# matched against the path relative to ROOT, with / separators.
RULES = [
    (
        re.compile(r"^src/core/plan\.(h|cc)$"),
        ("core/planner.h", "core/executor.h", "core/ucudnn.h"),
        "the plan IR depends only on the core data model",
    ),
    (
        re.compile(r"^src/core/executor\.(h|cc)$"),
        ("core/planner.h", "core/ucudnn.h"),
        "the executor receives policy via callback, never includes the planner",
    ),
    (
        re.compile(r"^src/core/planner\.(h|cc)$"),
        ("core/executor.h", "core/ucudnn.h"),
        "the planner hands plans down, never calls up into execution",
    ),
    (
        re.compile(r"^src/frameworks/.+\.(h|cc)$"),
        ("mcudnn/",),
        "frameworks integrate through the core/ucudnn.h facade only",
    ),
    # Rule 8: the serving front-end is a top layer — no library code may
    # include back into it (negative lookahead exempts serve itself).
    (
        re.compile(r"^src/(?!serve/).+\.(h|cc)$"),
        ("serve/",),
        "the serving front-end sits on top; the library never includes it",
    ),
    # Rule 9: the shared host ops sit below both frameworks.
    (
        re.compile(r"^src/frameworks/ops\.(h|cc)$"),
        ("frameworks/caffepp/", "frameworks/tfmini/"),
        "the shared host ops serve both frameworks and include neither",
    ),
    # Rule 10: the frameworks are siblings.
    (
        re.compile(r"^src/frameworks/caffepp/.+\.(h|cc)$"),
        ("frameworks/tfmini/",),
        "frameworks never include each other; shared code is frameworks/ops.h",
    ),
    (
        re.compile(r"^src/frameworks/tfmini/.+\.(h|cc)$"),
        ("frameworks/caffepp/",),
        "frameworks never include each other; shared code is frameworks/ops.h",
    ),
]


# Rule 11: algorithm ids are named only inside the catalog.
ALGO_ID = re.compile(r"\b(?:fwd_algo|bwd_data_algo|bwd_filter_algo)::")
ALGO_CATALOG = re.compile(r"^src/kernels/registry\.(h|cc)$")
SOURCE = re.compile(r"^src/.+\.(h|cc)$")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literal contents, preserving layout
    (so line arithmetic still works on the result). Include directives use
    quotes, so quoted include paths are preserved verbatim."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def suppressed(raw_lines: list[str], line: int) -> bool:
    for candidate in (line - 1, line - 2):  # the line itself, the line above
        if 0 <= candidate < len(raw_lines) and SUPPRESS in raw_lines[candidate]:
            return True
    return False


def check_text(rel: str, raw: str) -> list[str]:
    """Returns findings for one file's contents (rel is the ROOT-relative
    path with / separators)."""
    rules = [r for r in RULES if r[0].match(rel)]
    leaf = TELEMETRY_LEAF.match(rel) is not None
    locking_leaf = LOCKING_LEAF.match(rel) is not None
    serve = SERVE_LAYER.match(rel) is not None
    algo_ids = SOURCE.match(rel) is not None and not ALGO_CATALOG.match(rel)
    if not (rules or leaf or locking_leaf or serve or algo_ids):
        return []
    clean = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    findings = []
    if algo_ids:
        for match in ALGO_ID.finditer(clean):
            line = line_of(clean, match.start())
            if not suppressed(raw_lines, line):
                findings.append(
                    f"{rel}:{line}: layering: {rel} names the algorithm id "
                    f"{match.group(0)}... (only src/kernels/registry.{{h,cc}} "
                    "names algorithms; ask the catalog instead)"
                )
    for match in INCLUDE.finditer(clean):
        delim = match.group(1)
        header = match.group(2)
        line = line_of(clean, match.start())
        if suppressed(raw_lines, line):
            continue
        if (
            leaf
            and delim == '"'
            and not header.startswith("telemetry/")
            and header not in TELEMETRY_LEAF_EXTRA
        ):
            findings.append(
                f"{rel}:{line}: layering: {rel} must not include "
                f'"{header}" (telemetry is a leaf: only telemetry/, the '
                "locking leaf, and system headers)"
            )
        if (
            serve
            and delim == '"'
            and not header.startswith(SERVE_ALLOWED_PREFIXES)
        ):
            findings.append(
                f"{rel}:{line}: layering: {rel} must not include "
                f'"{header}" (serve sits on the facade: only serve/, core/, '
                "kernels/, common/, telemetry/, and system headers)"
            )
        if locking_leaf and delim == '"':
            findings.append(
                f"{rel}:{line}: layering: {rel} must not include "
                f'"{header}" (the locking leaf includes only system headers)'
            )
        for _, forbidden, why in rules:
            for prefix in forbidden:
                if header == prefix or header.startswith(prefix):
                    findings.append(
                        f"{rel}:{line}: layering: {rel} must not include "
                        f'"{header}" ({why})'
                    )
    return findings


def scan_tree(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in {".h", ".cc"} and path.is_file():
            rel = path.relative_to(root).as_posix()
            raw = path.read_text(encoding="utf-8", errors="replace")
            findings.extend(check_text(rel, raw))
    return findings


def self_test() -> int:
    cases = [
        # (rel path, contents, expected finding count)
        ("src/core/plan.h", '#include "core/planner.h"\n', 1),
        ("src/core/plan.cc", '#include "core/executor.h"\n', 1),
        ("src/core/plan.cc", '#include "core/types.h"\n', 0),
        ("src/core/executor.h", '#include "core/planner.h"\n', 1),
        ("src/core/executor.cc", '#include "core/ucudnn.h"\n', 1),
        # The executor may see the IR and the raw library.
        (
            "src/core/executor.h",
            '#include "core/plan.h"\n#include "mcudnn/mcudnn.h"\n',
            0,
        ),
        ("src/core/planner.cc", '#include "core/executor.h"\n', 1),
        ("src/core/planner.h", '#include "core/plan.h"\n', 0),
        ("src/frameworks/caffepp/net.cc", '#include "mcudnn/mcudnn.h"\n', 1),
        ("src/frameworks/tfmini/tfmini.h", '#include "core/ucudnn.h"\n', 0),
        # Commented-out includes and suppressions do not count.
        ("src/core/plan.h", '// #include "core/planner.h"\n', 0),
        (
            "src/core/plan.h",
            '#include "core/planner.h"  // layering: allow\n',
            0,
        ),
        # Other files are out of scope for the core rules.
        ("src/core/ucudnn.h", '#include "core/planner.h"\n', 0),
        # Telemetry is a leaf: system and telemetry/ includes are fine,
        # anything project-local outside telemetry/ is a violation.
        ("src/telemetry/metrics.cc", "#include <atomic>\n", 0),
        ("src/telemetry/trace.h", '#include "telemetry/metrics.h"\n', 0),
        ("src/telemetry/metrics.cc", '#include "common/env.h"\n', 1),
        ("src/telemetry/trace.cc", '#include "core/types.h"\n', 1),
        (
            "src/telemetry/trace.cc",
            '#include "common/env.h"  // layering: allow\n',
            0,
        ),
        # ...but everyone may include telemetry.
        ("src/core/planner.cc", '#include "telemetry/metrics.h"\n', 0),
        ("src/frameworks/caffepp/net.cc", '#include "telemetry/trace.h"\n', 0),
        # The report/json_writer pair is covered by the same leaf rule: they
        # may include each other but never reach back into core or common.
        ("src/telemetry/report.cc", '#include "telemetry/json_writer.h"\n', 0),
        ("src/telemetry/json_writer.cc",
         '#include "telemetry/json_writer.h"\n', 0),
        ("src/telemetry/report.cc", '#include "core/plan.h"\n', 1),
        ("src/telemetry/json_writer.h", '#include "common/env.h"\n', 1),
        # The locking leaf (common/thread_annotations.h) is the one
        # non-telemetry header telemetry may include...
        (
            "src/telemetry/metrics.h",
            '#include "common/thread_annotations.h"\n',
            0,
        ),
        # ...but other common/ headers remain forbidden there, and the
        # locking leaf itself may include only system headers.
        ("src/telemetry/metrics.h", '#include "common/env.h"\n', 1),
        ("src/common/thread_annotations.h", "#include <mutex>\n", 0),
        ("src/common/thread_annotations.h", '#include "common/env.h"\n', 1),
        (
            "src/common/thread_annotations.h",
            '#include "telemetry/metrics.h"\n',
            1,
        ),
        # Other common/ files are out of scope for the locking-leaf rule.
        ("src/common/thread_pool.h", '#include "common/env.h"\n', 0),
        # Rule 7: serve may include its allowed surface...
        (
            "src/serve/server.cc",
            '#include "serve/request_queue.h"\n'
            '#include "core/ucudnn.h"\n'
            '#include "kernels/conv_problem.h"\n'
            '#include "common/thread_pool.h"\n'
            '#include "telemetry/metrics.h"\n'
            "#include <atomic>\n",
            0,
        ),
        # ...but never reaches under the facade or sideways into frameworks.
        ("src/serve/server.cc", '#include "mcudnn/mcudnn.h"\n', 1),
        ("src/serve/batcher.h", '#include "frameworks/caffepp/net.h"\n', 1),
        ("src/serve/request.h", '#include "device/device.h"\n', 1),
        (
            "src/serve/server.cc",
            '#include "mcudnn/mcudnn.h"  // layering: allow\n',
            0,
        ),
        # Rule 8: nothing in the library includes serve/ back.
        ("src/core/ucudnn.cc", '#include "serve/server.h"\n', 1),
        ("src/common/thread_pool.h", '#include "serve/request.h"\n', 1),
        ("src/frameworks/tfmini/tfmini.cc", '#include "serve/server.h"\n', 1),
        # Telemetry including serve trips both the leaf and rule 8.
        ("src/telemetry/metrics.cc", '#include "serve/request.h"\n', 2),
        # serve including serve is of course fine.
        ("src/serve/batcher.cc", '#include "serve/batcher.h"\n', 0),
        # The flight recorder and watchdog are ordinary telemetry-leaf
        # citizens: telemetry + locking-leaf includes only...
        (
            "src/telemetry/flight_recorder.h",
            '#include "telemetry/metrics.h"\n'
            '#include "common/thread_annotations.h"\n'
            "#include <atomic>\n",
            0,
        ),
        ("src/telemetry/watchdog.cc", '#include "telemetry/flight_recorder.h"\n', 0),
        # ...never back into the stack they observe.
        ("src/telemetry/flight_recorder.cc", '#include "common/env.h"\n', 1),
        ("src/telemetry/watchdog.h", '#include "serve/server.h"\n', 2),
        ("src/telemetry/flight_recorder.cc", '#include "core/executor.h"\n', 1),
        # The serve layer and the fault injector may feed the black box.
        ("src/serve/request_queue.cc",
         '#include "telemetry/flight_recorder.h"\n', 0),
        ("src/serve/server.cc", '#include "telemetry/watchdog.h"\n', 0),
        ("src/common/fault_injection.cc",
         '#include "telemetry/flight_recorder.h"\n', 0),
        # Rule 9: the shared host ops include neither framework...
        ("src/frameworks/ops.cc", '#include "frameworks/caffepp/blob.h"\n', 1),
        ("src/frameworks/ops.h", '#include "frameworks/tfmini/tfmini.h"\n', 1),
        (
            "src/frameworks/ops.cc",
            '#include "frameworks/ops.h"\n#include "common/thread_pool.h"\n',
            0,
        ),
        # ...and, being framework code, stay above the facade too.
        ("src/frameworks/ops.cc", '#include "mcudnn/mcudnn.h"\n', 1),
        # Rule 10: both frameworks include the ops, never each other.
        ("src/frameworks/caffepp/layers.h", '#include "frameworks/ops.h"\n', 0),
        ("src/frameworks/tfmini/tfmini.cc", '#include "frameworks/ops.h"\n', 0),
        ("src/frameworks/caffepp/net.cc",
         '#include "frameworks/caffepp/layers.h"\n', 0),
        ("src/frameworks/caffepp/net.cc",
         '#include "frameworks/tfmini/tfmini.h"\n', 1),
        ("src/frameworks/tfmini/models.cc",
         '#include "frameworks/caffepp/blob.h"\n', 1),
        (
            "src/frameworks/tfmini/tfmini.h",
            '#include "frameworks/caffepp/net.h"  // layering: allow\n',
            0,
        ),
        # Rule 11: the catalog names algorithm ids...
        (
            "src/kernels/registry.h",
            "namespace fwd_algo {\ninline constexpr int kGemm = 2;\n}\n",
            0,
        ),
        (
            "src/kernels/registry.cc",
            "static_assert(fwd_algo::kCount == 8);\n"
            "int n = bwd_filter_algo::kCount + bwd_data_algo::kCount;\n",
            0,
        ),
        # ...nothing else does: a per-algorithm switch is flagged per case.
        (
            "src/device/device.cc",
            "switch (algo) {\n"
            "  case fwd_algo::kGemm: return 0.58;\n"
            "  case kernels::bwd_data_algo::kAlgo0: return 0.22;\n"
            "}\n",
            2,
        ),
        ("src/core/planner.cc", "int a = kernels::bwd_filter_algo::kFft;\n", 1),
        # Comments and the suppression comment do not count.
        ("src/mcudnn/mcudnn.cc", "// falls back to fwd_algo::kGemm\n", 0),
        (
            "src/core/executor.cc",
            "int a = fwd_algo::kDirect;  // layering: allow\n",
            0,
        ),
        # Tests, benches and examples are outside src/.
        ("tests/device_test.cc", "int a = fwd_algo::kGemm;\n", 0),
    ]
    failures = []
    for rel, text, expected in cases:
        got = check_text(rel, text)
        if len(got) != expected:
            failures.append((rel, text, expected, got))
    if failures:
        print("self-test FAILED")
        for rel, text, expected, got in failures:
            print(f"  {rel!r} x {text!r}: expected {expected}, got {len(got)}")
            for f in got:
                print(f"    {f}")
        return 1
    print(f"self-test passed ({len(cases)} cases)")
    return 0


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--self-test"]
    if "--self-test" in argv[1:]:
        return self_test()
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    findings = scan_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} layering violation(s)")
        return 1
    print("layering clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
