"""Per-file rules: the 11 v1 rules ported onto the tokenizer, plus durable-write
and raw-frame.

Behavior is intentionally identical to the v1 single-file linter on the
fixture corpus (proven by `--fixtures` and lint_selfcheck_test); the only
difference is the lexical substrate — rules now see a comment-free,
literal-blanked code view from sfq_lint.tokenizer instead of the fragile
per-line `strip_code`, so block comments and raw strings can no longer
produce phantom findings.
"""

from __future__ import annotations

import os
import re

from .findings import Finding, report_unless_suppressed
from .tokenizer import code_lines

CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

# Member types that need no lock: atomics, the synchronization primitives
# themselves, joined-thread handles, and internally-synchronized classes.
THREADSAFE_TYPE_PREFIXES = (
    "std::atomic",
    "Mutex",
    "CondVar",
    "std::thread",
    "std::vector<std::thread>",
    "BatchQueue",
    "SnapshotCell",
)


class FileLinter:
    """Runs the per-file rules on one file at a (possibly pretend) path."""

    def __init__(self, relpath, text, status_methods, failpoint_sites=None):
        self.path = relpath.replace(os.sep, "/")
        self.lines = text.splitlines()
        self.code = code_lines(text)
        self.status_methods = status_methods
        self.failpoint_sites = failpoint_sites or (frozenset(), frozenset())
        self.findings = []

    def run(self):
        if not self.path.endswith(CXX_EXTENSIONS):
            return []
        in_src = self.path.startswith("src/")
        in_tools = self.path.startswith("tools/")
        if in_src:
            self.check_row_seed()
            self.check_unguarded_member()
            if not self.path.startswith("src/util/"):
                self.check_raw_frame()
        if in_src or in_tools:
            self.check_raw_geometry()
            if self.path != "src/util/mutex.h":
                self.check_raw_mutex()
            if not self.path.startswith("src/util/failpoint"):
                self.check_failpoint_site()
            if not self.path.startswith("src/server/protocol"):
                self.check_server_opcode_cast()
        if self.path.startswith("src/server/") and not self.path.startswith(
            "src/server/wal."
        ):
            self.check_durable_write()
        if (
            in_src or in_tools or self.path.startswith("bench/")
        ) and self.path != "src/util/simd.h":
            self.check_simd_ifdef()
        if self.path.startswith(("src/verify/", "src/stream/")):
            self.check_nondet_random()
        self.check_dropped_status()
        return self.findings

    def report(self, idx, rule, message):
        """Records a finding at 0-based line idx unless suppressed."""
        report_unless_suppressed(
            self.findings, self.lines, self.path, idx, rule, message)

    # -- row-seed ----------------------------------------------------------
    def check_row_seed(self):
        """Flags SplitMix64 construction inside a hash-row loop.

        The blessed idiom constructs one seeder before the loop and lets
        each emplace_back(seeder) advance it, giving every row fresh
        parameters. A SplitMix64 built inside the loop restarts the stream
        each iteration: all rows share one seed.
        """
        i = 0
        while i < len(self.code):
            line = self.code[i]
            m = re.search(r"\bfor\s*\(", line)
            if not m:
                i += 1
                continue
            body_lines = self._loop_body(i)
            has_emplace = any(
                re.search(r"\b(emplace_back|push_back)\s*\(", b)
                for _, b in body_lines
            )
            for idx, b in body_lines:
                if has_emplace and re.search(r"\bSplitMix64\b", b):
                    self.report(
                        idx,
                        "row-seed",
                        "SplitMix64 constructed inside a per-row loop: every "
                        "row hashes with the same seed, voiding pairwise "
                        "independence (Lemma 5). Construct one seeder before "
                        "the loop and pass it to each row's constructor.",
                    )
            i = body_lines[-1][0] + 1 if body_lines else i + 1

    def _loop_body(self, start):
        """Returns [(idx, code)] for the loop whose `for` is on line start."""
        depth = 0
        seen_open = False
        out = []
        for idx in range(start, min(start + 200, len(self.code))):
            code = self.code[idx]
            seg = code[code.index("for") :] if idx == start and "for" in code else code
            out.append((idx, seg))
            depth += seg.count("{") - seg.count("}")
            if "{" in seg:
                seen_open = True
            if seen_open and depth <= 0:
                break
            if not seen_open and seg.rstrip().endswith(";") and idx > start:
                break  # single-statement body
        return out

    # -- raw-geometry ------------------------------------------------------
    def check_raw_geometry(self):
        if self.path.startswith("src/core/sketch_params"):
            return  # the sizing rules themselves
        pat = re.compile(
            r"[.>]\s*(width|depth)\s*=\s*(\d[\dxXa-fA-F']*)\s*(?:<<\s*\d+\s*)?;"
        )
        for idx, code in enumerate(self.code):
            m = pat.search(code)
            if not m:
                continue
            if m.group(2) in ("0",):  # zero-inits are validation defaults
                continue
            self.report(
                idx,
                "raw-geometry",
                f"sketch {m.group(1)} set from a raw literal; derive it from "
                "sketch_params.h (SizeForApproxTop/ZipfWidth) or a named "
                "constant so the Lemma 5 sizing stays auditable.",
            )

    # -- nondet-random -----------------------------------------------------
    def check_nondet_random(self):
        pat = re.compile(r"std::random_device|\b(?:s?rand)\s*\(")
        for idx, code in enumerate(self.code):
            if pat.search(code):
                self.report(
                    idx,
                    "nondet-random",
                    "nondeterministic randomness in a deterministic-replay "
                    "path; seed a SplitMix64/std::mt19937 from an explicit "
                    "seed so fuzz reproducers replay bit-identically.",
                )

    # -- dropped-status ----------------------------------------------------
    def check_dropped_status(self):
        if not self.status_methods:
            return
        names = "|".join(sorted(self.status_methods))
        # A whole statement of the form `receiver.Method(...);` (or ->) with
        # nothing consuming the return value. Assignments, returns, (void)
        # casts, and macro wrappers all fail this shape.
        pat = re.compile(
            rf"^\s*[A-Za-z_][\w.\[\]]*(?:->[\w.\[\]]+)*(?:\.|->)({names})\(.*\)\s*;\s*$"
        )
        # A line that is really the tail of a wrapped statement
        # (`const Status s =\n    foo.Bar();`) is consumed by whatever the
        # previous line ends with, not dropped.
        continuation = re.compile(r"(=|\(|,|\+|\?|:|\|\||&&|\breturn)\s*$")
        for idx, code in enumerate(self.code):
            prev = ""
            for back in range(idx - 1, -1, -1):
                if self.code[back].strip():
                    prev = self.code[back]
                    break
            if continuation.search(prev):
                continue
            if pat.match(code):
                m = pat.match(code)
                self.report(
                    idx,
                    "dropped-status",
                    f"result of Status-returning {m.group(1)}() is discarded; "
                    "check it, propagate it, or cast to (void) with a comment.",
                )

    # -- raw-mutex ---------------------------------------------------------
    def check_raw_mutex(self):
        pat = re.compile(
            r"std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b"
        )
        for idx, code in enumerate(self.code):
            m = pat.search(code)
            if m:
                self.report(
                    idx,
                    "raw-mutex",
                    f"std::{m.group(1)} is invisible to the thread-safety "
                    "analysis; use streamfreq::Mutex/MutexLock/CondVar from "
                    "util/mutex.h so SFQ_GUARDED_BY members stay checked.",
                )

    # -- failpoint-site ----------------------------------------------------
    def check_failpoint_site(self):
        """Failpoints are planted only via SFQ_FAILPOINT with a known literal.

        The macro is what makes sites compile out under
        STREAMFREQ_FAILPOINTS=OFF; the literal-site requirement is what lets
        Configure() reject typo'd --failpoints specs and lets the chaos
        scheduler enumerate every plantable fault.
        """
        registered, documented = self.failpoint_sites
        lit = re.compile(r'SFQ_FAILPOINT\(\s*"([^"]*)"')
        direct = re.compile(
            r"FailpointRegistry\b.*\bEvaluate\s*\(|\bGlobal\(\)\s*\.\s*Evaluate\s*\("
        )
        for idx, code in enumerate(self.code):
            if "SFQ_FAILPOINT" in code and "#define" not in code:
                # self.code has literal contents blanked; re-read the raw
                # line to recover the site name.
                m = lit.search(self.lines[idx])
                if not m:
                    self.report(
                        idx,
                        "failpoint-site",
                        "SFQ_FAILPOINT takes a string-literal site name; a "
                        "computed name cannot be validated by Configure() or "
                        "enumerated by the chaos scheduler.",
                    )
                elif registered and m.group(1) not in registered:
                    self.report(
                        idx,
                        "failpoint-site",
                        f"failpoint site '{m.group(1)}' is not registered in "
                        "FailpointRegistry::KnownSites() "
                        "(src/util/failpoint.cc); register it there so "
                        "--failpoints specs naming it validate.",
                    )
                elif documented and m.group(1) not in documented:
                    self.report(
                        idx,
                        "failpoint-site",
                        f"failpoint site '{m.group(1)}' is missing from the "
                        "site table in docs/ROBUSTNESS.md; document what it "
                        "injects and which degraded path it exercises.",
                    )
            if direct.search(code):
                self.report(
                    idx,
                    "failpoint-site",
                    "direct FailpointRegistry Evaluate() call; plant faults "
                    'via SFQ_FAILPOINT("site") so they compile out when '
                    "STREAMFREQ_FAILPOINTS=OFF and the site stays auditable.",
                )

    # -- server-opcode (per-file half) -------------------------------------
    def check_server_opcode_cast(self):
        """Only the registry may materialize an Opcode from a raw number.

        LookupOpcode() is the one blessed number->Opcode conversion: it
        rejects unregistered values, so every Opcode in flight names a row
        of kOpcodeTable. A static_cast<Opcode>(literal) elsewhere can mint
        values the dispatch switch has never heard of.
        """
        pat = re.compile(
            r"static_cast\s*<\s*(?:streamfreq\s*::\s*)?Opcode\s*>\s*\(\s*"
            r"(?:0[xX][0-9a-fA-F']+|\d[\d']*)"
        )
        for idx, code in enumerate(self.code):
            if pat.search(code):
                self.report(
                    idx,
                    "server-opcode",
                    "Opcode minted from a raw numeric literal; go through "
                    "LookupOpcode() (src/server/protocol.cc) so unregistered "
                    "opcodes stay unrepresentable.",
                )

    # -- durable-write -----------------------------------------------------
    DURABLE_WRITE_RE = re.compile(
        r"std::ofstream\b|\bfopen\s*\(|\bfwrite\s*\(|\bcreat\s*\("
        r"|(?:std::filesystem::|std::|::)rename\s*\("
        r"|::open\s*\([^;]*O_(?:WRONLY|RDWR|CREAT|APPEND|TRUNC)"
    )

    def check_durable_write(self):
        """src/server/ persists state only through the two audited paths.

        Tenant durability rests on exactly two write disciplines: the
        sketch_io write-temp-then-rename snapshot path (one rename is one
        commit point) and the CRC-framed WAL append in src/server/wal.cc
        (torn tails are detected and discarded at replay). A raw ofstream,
        fopen/fwrite, or rename anywhere else in the server can leave a
        half-written file that recovery has no framing to reject.
        """
        for idx, code in enumerate(self.code):
            m = self.DURABLE_WRITE_RE.search(code)
            if m:
                self.report(
                    idx,
                    "durable-write",
                    f"raw file write '{m.group(0).strip()}' in src/server/; "
                    "persist through core/sketch_io.h (write-temp-then-"
                    "rename) or the WAL (src/server/wal.cc) so a crash "
                    "cannot publish a half-written file recovery would "
                    "trust.",
                )

    # -- raw-frame ---------------------------------------------------------
    RAW_FRAME_RE = re.compile(r"\bcrc32c\s*::")

    def check_raw_frame(self):
        """Checksummed frames are built and checked in src/util/frame only.

        RPC frames, WAL records and blob files share one header (magic,
        length, masked CRC-32C). A crc32c call elsewhere in src/ is a second
        copy of that codec, free to drift from the golden bytes the others
        keep.
        """
        for idx, code in enumerate(self.code):
            if self.RAW_FRAME_RE.search(code):
                self.report(
                    idx,
                    "raw-frame",
                    "crc32c used outside src/util/; build and check frames "
                    "through util/frame.h (frame::Append / ParseHeader / "
                    "VerifyPayload / Split) so the frame layout has one "
                    "definition.",
                )

    # -- simd-ifdef --------------------------------------------------------
    SIMD_TOKEN_RE = re.compile(
        r"__AVX512[A-Z0-9]*__|__AVX2?__|__SSE[0-9_]*__"
        r"|__ARM_NEON(?:__)?|STREAMFREQ_FORCE_SCALAR_SIMD"
        r"|\b(?:imm|x86|arm_ne|smm|emm|tmm)\w*intrin\.h|\barm_neon\.h"
        r"|\b_mm(?:256|512)?_\w+|\bv(?:ld|st)[1-4]q?_\w+"
        r"|vector_size\s*\("
    )

    def check_simd_ifdef(self):
        """ISA conditionals and intrinsics live in src/util/simd.h only.

        The whole bit-identity argument (docs/PERFORMANCE.md) rests on the
        kernels being compiled once, against one lane-bundle abstraction,
        in the one library target that receives STREAMFREQ_SIMD flags. A
        stray __AVX2__ ifdef elsewhere reintroduces per-TU divergence.
        """
        for idx, code in enumerate(self.code):
            m = self.SIMD_TOKEN_RE.search(code)
            if m:
                self.report(
                    idx,
                    "simd-ifdef",
                    f"instruction-set token '{m.group(0).strip()}' outside "
                    "src/util/simd.h; program against simd::U64x8 (or add a "
                    "new primitive to simd.h) so SIMD stays confined to the "
                    "one audited dispatch header.",
                )

    # -- unguarded-member --------------------------------------------------
    MEMBER_RE = re.compile(
        r"^\s*(?P<mutable>mutable\s+)?(?P<const>const\s+)?"
        r"(?P<type>[\w:]+(?:<[^;=]*>)?(?:\s*[*&])?)\s+"
        r"(?P<name>[a-z]\w*_)\s*"
        r"(?P<guard>SFQ(?:_PT)?_GUARDED_BY\([^)]*\))?\s*"
        r"(?:\{[^}]*\}|=[^;]*)?;\s*$"
    )

    def check_unguarded_member(self):
        for body in self._class_bodies():
            members = []
            has_mutex = False
            for idx in body:
                m = self.MEMBER_RE.match(self.code[idx])
                if not m:
                    continue
                members.append((idx, m))
                if m.group("type") == "Mutex":
                    has_mutex = True
            if not has_mutex:
                continue
            for idx, m in members:
                if m.group("guard") or m.group("const"):
                    continue
                mtype = m.group("type")
                if any(mtype.startswith(p) for p in THREADSAFE_TYPE_PREFIXES):
                    continue
                self.report(
                    idx,
                    "unguarded-member",
                    f"member '{m.group('name')}' of a mutex-owning class has "
                    "no SFQ_GUARDED_BY annotation; annotate it, or suppress "
                    "with a justification if it is thread-confined.",
                )

    def _class_bodies(self):
        """Yields lists of 0-based line indices at each class-body depth."""
        depth = 0
        stack = []  # (class_body_depth, [line indices])
        pending_class = False
        for idx, code in enumerate(self.code):
            if re.search(r"\b(class|struct)\s+\w+[^;]*$", code) and ";" not in code:
                pending_class = True
            for c in code:
                if c == "{":
                    depth += 1
                    if pending_class:
                        stack.append((depth, []))
                        pending_class = False
                elif c == "}":
                    if stack and stack[-1][0] == depth:
                        yield stack.pop()[1]
                    depth -= 1
            if stack and stack[-1][0] == depth:
                stack[-1][1].append(idx)
