#!/usr/bin/env python3
"""aru-analyze: call-graph static analyzer for the stampede runtime.

Consumes a compile database (compile_commands.json), parses every
translation unit and header under the configured source prefixes with a
lightweight C++ tokenizer, builds the project-wide call graph, and
enforces the annotation-driven rules declared in
src/util/static_annotations.hpp:

  hot       No function reachable from an ARU_HOT_PATH root may
            transitively allocate (operator new, container growth) or
            block (sleeps, waits, joins, blocking syscalls), unless the
            callee carries a reviewed ARU_ANALYZE_ESCAPE or the site is
            listed in the baseline.
  ranks     Every util::Mutex acquisition is checked against the
            LockRank partial order: while a rank-R guard is lexically
            held, no acquisition of rank <= R may occur, directly or
            through any callee (ARU_LOCK_DEBUG is the runtime backstop
            for paths the lexical analysis cannot see).
  nothrow   Functions reachable from an ARU_NOTHROW_PATH root must not
            `throw` or call a throwing-by-contract function (`at`,
            `stoi`, `optional::value`, ...). std::bad_alloc is out of
            scope -- allocation on these paths is the hot rule's job.
  lint      AST-level versions of the grep rules that grep cannot do
            soundly: raw-payload (std::vector<std::byte>, including
            through using/typedef alias chains), raw-sleep
            (std::this_thread::sleep_for/until, including through
            namespace aliases and using-declarations), and
            telemetry-http (the exporter's HTTP parsing —
            parse_http_request / HttpRequest — referenced outside
            src/telemetry/; clients use telemetry::http_get), and
            send-vec (TcpStream::send_vec named outside the socket
            layer; frames leave through net::SendBuffer so they can
            never interleave mid-stream).

The analyzer is deliberately pure Python stdlib: the CI image and dev
containers are not guaranteed a libclang with matching Python bindings,
and the checked properties are lexical/call-graph level, not
template-instantiation level. The ARU_ANALYZE_ANNOTATE macro gate in
static_annotations.hpp reserves the upgrade path to a libclang backend.

Soundness model (documented in docs/ARCHITECTURE.md):
  - Unknown callees (std:: internals, token not resolvable) are assumed
    clean unless their *name* is in the builtin allocating / blocking /
    throwing tables below. Calls through function pointers, virtuals and
    type-erased callables are invisible; TSan + ARU_LOCK_DEBUG remain
    the runtime backstop.
  - Name resolution over-approximates: an unqualified or
    unknown-receiver call may fan out to every project function with
    that simple name. Over-approximation can cause false positives
    (fix with qualification or a baseline entry), never false negatives
    at this level.

Exit codes: 0 clean, 1 findings (or stale baseline), 2 usage/config
error (e.g. missing compile database).
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import re
import shlex
import sys
from collections import defaultdict
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Builtin knowledge: names that allocate, block, or throw by contract.
# Matched against the *callee name* of call sites whose target is not a
# project function. Kept deliberately small and reviewable.
# --------------------------------------------------------------------------

ALLOCATING_NAMES = {
    # container growth / reallocation
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "resize", "reserve", "insert", "insert_or_assign", "try_emplace",
    "assign", "append", "shrink_to_fit",
    # factories and conversions that heap-allocate
    "make_shared", "make_unique", "to_string", "substr",
    "malloc", "calloc", "realloc", "strdup",
}

BLOCKING_NAMES = {
    # std waiting primitives
    "sleep_for", "sleep_until", "wait", "wait_for", "wait_until", "join",
    # POSIX blocking syscalls (the socket layer wraps these)
    "nanosleep", "usleep", "poll", "ppoll", "select", "epoll_wait",
    "accept", "connect", "recv", "recvmsg", "recvfrom",
    "send", "sendmsg", "sendto", "read", "write", "fsync", "flock",
}

THROWING_NAMES = {
    # throwing-by-contract accessors / conversions (bad_alloc excluded
    # by design: allocation on decode paths is the hot rule's finding)
    "at", "value", "stoi", "stol", "stoll", "stoul", "stoull",
    "stof", "stod", "stold",
}

# Names so generic that resolving them against *any* project method by
# simple name would wire unrelated classes together. These only resolve
# via a known receiver type, `this`, or explicit qualification.
GENERIC_METHOD_NAMES = {
    "size", "empty", "clear", "begin", "end", "data", "reset", "get",
    "count", "find", "front", "back", "swap", "name", "stop", "start",
    "value", "id", "type", "bytes", "close",
    # std::atomic's accessors: x.load() must not resolve to an unrelated
    # load() method elsewhere in the codebase (e.g. Manifest::load).
    "load", "store", "exchange",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "static_assert", "decltype", "catch", "new", "delete",
    "throw", "co_await", "co_return", "co_yield", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "typeid",
    "noexcept", "assert", "defined", "requires", "explicit", "operator",
}

# Thread-safety annotation macros (util/thread_annotations.hpp) that can
# trail a function declarator. REQUIRES feeds the held-at-entry set.
TSA_MACROS = {
    "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "ACQUIRE", "ACQUIRE_SHARED",
    "RELEASE", "RELEASE_SHARED", "RELEASE_GENERIC", "TRY_ACQUIRE",
    "TRY_ACQUIRE_SHARED", "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
    "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY",
}

# ARU annotation macros (util/static_annotations.hpp).
ARU_FLAG_MACROS = {"ARU_HOT_PATH", "ARU_MAY_BLOCK", "ARU_ALLOCATES",
                   "ARU_NOTHROW_PATH"}
ARU_ARG_MACROS = {"ARU_ACQUIRES_RANK", "ARU_ANALYZE_ESCAPE"}

# Declaration-position attribute macros to skip over when parsing heads.
DECL_NOISE_MACROS = TSA_MACROS | {
    "CAPABILITY", "SCOPED_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER",
    # code-generation attribute (util/static_annotations.hpp)
    "ARU_TARGET_AVX2",
}


# --------------------------------------------------------------------------
# Tokenizer + minimal preprocessor
# --------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str   # "id" | "num" | "str" | "chr" | "punct"
    text: str
    line: int


_PUNCT2 = {"::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "++", "--"}

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")


def _eval_pp_expr(expr: str, defines: dict) -> bool:
    """Evaluate a preprocessor #if expression against a define map.

    Supports defined(X)/defined X, integer literals, ! && || == != < >
    <= >= and parentheses. Unknown identifiers and unknown function-like
    invocations (__has_include, __has_feature, ...) evaluate to 0, which
    matches how this tree uses conditionals (feature-test style)."""
    toks = re.findall(r"defined\s*\(\s*\w+\s*\)|defined\s+\w+|\w+|&&|\|\||"
                      r"[!<>=]=|[()!<>]|\d+", expr)
    out = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.startswith("defined"):
            name = re.findall(r"\w+", t)[1]
            out.append("1" if name in defines else "0")
        elif re.fullmatch(r"\d+[uUlL]*", t):
            out.append(re.sub(r"[uUlL]+$", "", t))
        elif re.fullmatch(r"\w+", t):
            val = defines.get(t)
            if val is not None and re.fullmatch(r"\d+", str(val)):
                out.append(str(val))
            elif i + 1 < len(toks) and toks[i + 1] == "(":
                # unknown function-like: skip its argument list
                depth = 0
                i += 1
                while i < len(toks):
                    if toks[i] == "(":
                        depth += 1
                    elif toks[i] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                out.append("0")
            else:
                out.append("0")
        elif t == "&&":
            out.append(" and ")
        elif t == "||":
            out.append(" or ")
        elif t == "!":
            out.append(" not ")
        else:
            out.append(t)
        i += 1
    try:
        return bool(eval("".join(out), {"__builtins__": {}}, {}))  # noqa: S307
    except Exception:
        return False


def preprocess(text: str, defines: dict) -> str:
    """Resolve #if/#ifdef conditionals, blank out directive lines and
    inactive regions (preserving line numbers), splice continuations."""
    # Splice backslash-newline, keeping a newline so line numbers hold.
    text = text.replace("\\\n", " \n")
    out_lines = []
    # stack of [taken_now, taken_ever] per open conditional
    stack = []
    local_defines = dict(defines)
    for line in text.split("\n"):
        stripped = line.lstrip()
        active = all(s[0] for s in stack)
        if stripped.startswith("#"):
            d = stripped[1:].lstrip()
            if d.startswith("ifdef"):
                name = d[5:].strip().split()[0] if d[5:].strip() else ""
                taken = active and name in local_defines
                stack.append([taken, taken])
            elif d.startswith("ifndef"):
                name = d[6:].strip().split()[0] if d[6:].strip() else ""
                taken = active and name not in local_defines
                stack.append([taken, taken])
            elif d.startswith("if"):
                taken = active and _eval_pp_expr(d[2:], local_defines)
                stack.append([taken, taken])
            elif d.startswith("elif"):
                if stack:
                    outer = all(s[0] for s in stack[:-1])
                    taken = (outer and not stack[-1][1]
                             and _eval_pp_expr(d[4:], local_defines))
                    stack[-1][0] = taken
                    stack[-1][1] = stack[-1][1] or taken
            elif d.startswith("else"):
                if stack:
                    outer = all(s[0] for s in stack[:-1])
                    stack[-1][0] = outer and not stack[-1][1]
                    stack[-1][1] = True
            elif d.startswith("endif"):
                if stack:
                    stack.pop()
            elif d.startswith("define") and active:
                m = re.match(r"define\s+(\w+)(?:\s+(\S+))?", d)
                if m and "(" not in (m.group(1) or ""):
                    local_defines[m.group(1)] = m.group(2) or "1"
            elif d.startswith("undef") and active:
                m = re.match(r"undef\s+(\w+)", d)
                if m:
                    local_defines.pop(m.group(1), None)
            out_lines.append("")  # directive line itself never tokenized
        else:
            out_lines.append(line if active else "")
    return "\n".join(out_lines)


def tokenize(text: str) -> list:
    """Comment- and literal-aware C++ tokenizer with line numbers."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            line += text.count("\n", i, j)
            i = j
        elif c == '"' or (c == "R" and text[i:i + 2] == 'R"'):
            if c == "R":
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    delim = ")" + m.group(1) + '"'
                    j = text.find(delim, i + m.end())
                    j = n if j < 0 else j + len(delim)
                    toks.append(Tok("str", text[i:j], line))
                    line += text.count("\n", i, j)
                    i = j
                    continue
                # plain identifier starting with R
                j = i
                while j < n and text[j] in _ID_CONT:
                    j += 1
                toks.append(Tok("id", text[i:j], line))
                i = j
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("str", text[i:j + 1], line))
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("chr", text[i:j + 1], line))
            i = j + 1
        elif c in _ID_START:
            j = i
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j] in _ID_CONT or text[j] == "."
                             or (text[j] in "+-" and text[j - 1] in "eEpP")
                             # C++14 digit separator: 1'000'000. Without
                             # this the ' opens a phantom char literal
                             # that can swallow real code past it.
                             or (text[j] == "'" and j + 1 < n
                                 and text[j + 1] in _ID_CONT)):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
        else:
            two = text[i:i + 2]
            if two in _PUNCT2:
                toks.append(Tok("punct", two, line))
                i += 2
            else:
                toks.append(Tok("punct", c, line))
                i += 1
    return toks


# --------------------------------------------------------------------------
# Parsed model
# --------------------------------------------------------------------------

@dataclass
class CallSite:
    name: str            # simple callee name ("push_back", "acquire", ...)
    qualifier: str       # explicit "a::b" qualification, "" if none
    receiver: str        # last identifier of the receiver chain, "" if none
    tok_idx: int         # index into the owning function's body tokens
    line: int
    file: str


@dataclass
class AcquireSite:
    mutex_expr: str      # last identifier of the mutex expression
    rank: object         # int rank if resolvable, else None
    var: str             # guard variable name ("" for direct .lock())
    tok_idx: int
    end_idx: int         # token index where the guard lexically dies
    line: int
    file: str


@dataclass
class Func:
    qname: str           # "ns::Class::name" (anon namespaces transparent)
    name: str
    cls: str             # enclosing class qname, "" for free functions
    file: str
    line: int
    annotations: set = field(default_factory=set)
    escape_reason: str = ""
    acquires_ranks: list = field(default_factory=list)  # from ARU_ACQUIRES_RANK
    requires: list = field(default_factory=list)        # REQUIRES(...) mutexes
    calls: list = field(default_factory=list)           # [CallSite]
    acquires: list = field(default_factory=list)        # [AcquireSite]
    news: list = field(default_factory=list)            # [(tok_idx, line)]
    throws: list = field(default_factory=list)          # [(tok_idx, line)]
    body: list = field(default_factory=list)            # body tokens
    is_def: bool = False

    @property
    def is_escape(self):
        return "escape" in self.annotations


@dataclass
class Model:
    funcs: dict = field(default_factory=dict)        # qname -> Func (defs)
    by_name: dict = field(default_factory=lambda: defaultdict(list))
    classes: set = field(default_factory=set)        # class qnames
    class_simple: dict = field(default_factory=lambda: defaultdict(list))
    members: dict = field(default_factory=dict)      # (cls, member) -> type key
    mutex_ranks: dict = field(default_factory=dict)  # (cls, member) -> rank name
    ns_mutex_ranks: dict = field(default_factory=dict)  # name -> rank name
    rank_values: dict = field(default_factory=dict)  # "kBuffer" -> 30
    lint_findings: list = field(default_factory=list)

    def add_func(self, fn: Func):
        prev = self.funcs.get(fn.qname)
        if prev is None or (fn.is_def and not prev.is_def):
            if prev is not None:
                # decl seen first: carry its annotations onto the def
                fn.annotations |= prev.annotations
                fn.requires = fn.requires or prev.requires
                fn.acquires_ranks = fn.acquires_ranks or prev.acquires_ranks
                fn.escape_reason = fn.escape_reason or prev.escape_reason
            self.funcs[fn.qname] = fn
            self.by_name[fn.name] = [f for f in self.by_name[fn.name]
                                     if f.qname != fn.qname] + [fn]
        else:
            # def seen first (or second decl): merge annotations in
            prev.annotations |= fn.annotations
            prev.requires = prev.requires or fn.requires
            prev.acquires_ranks = prev.acquires_ranks or fn.acquires_ranks
            prev.escape_reason = prev.escape_reason or fn.escape_reason


def _match(toks, i, open_p, close_p):
    """Index just past the token matching open_p at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_p:
            depth += 1
        elif t == close_p:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _skip_template_args(toks, i):
    """toks[i] == '<': best-effort skip of a template argument list.
    Returns index past the matching '>' or i if this '<' looks like a
    comparison (heuristic: hit ';' '{' '}' or ran too far)."""
    depth, j, n = 0, i, len(toks)
    limit = i + 160
    while j < n and j < limit:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}") or (t == "&&" and depth):
            return i
        j += 1
    return i


class Parser:
    """One pass over one file's token stream. Fills a shared Model."""

    def __init__(self, model: Model, path: str, toks: list):
        self.m = model
        self.path = path
        self.toks = toks
        self.i = 0
        self.scopes = []  # ("ns"|"class"|"skip", name)

    # ---- scope helpers ----
    def ns_qname(self):
        return "::".join(n for k, n in self.scopes if k == "ns" and n)

    def cls_qname(self):
        parts = [n for k, n in self.scopes if k in ("ns", "class") and n]
        in_cls = any(k == "class" for k, _ in self.scopes)
        return "::".join(parts) if in_cls else ""

    def qname_for(self, name):
        parts = [n for k, n in self.scopes if k in ("ns", "class") and n]
        return "::".join(parts + [name]) if parts else name

    # ---- main loop ----
    def run(self):
        toks, n = self.toks, len(self.toks)
        while self.i < n:
            t = toks[self.i]
            if t.kind == "id" and t.text == "namespace":
                self.handle_namespace()
            elif t.kind == "id" and t.text in ("class", "struct", "union"):
                if not self.handle_class():
                    self.i += 1
            elif t.kind == "id" and t.text == "enum":
                self.skip_enum()
            elif t.kind == "id" and t.text in ("using", "typedef"):
                self.handle_alias()
            elif t.kind == "id" and t.text == "template":
                self.i += 1
                if self.i < n and toks[self.i].text == "<":
                    self.i = _skip_template_args(toks, self.i)
            elif t.kind == "id" and t.text == "extern" and self.i + 1 < n \
                    and toks[self.i + 1].kind == "str":
                self.i += 2
                if self.i < n and toks[self.i].text == "{":
                    self.scopes.append(("ns", ""))  # transparent
                    self.i += 1
            elif t.text == "{":
                self.scopes.append(("skip", ""))
                self.i += 1
            elif t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
            elif t.text == ";":
                self.i += 1
            else:
                self.parse_decl_chunk()

    def handle_namespace(self):
        toks, n = self.toks, len(self.toks)
        j = self.i + 1
        name_parts = []
        while j < n and (toks[j].kind == "id" or toks[j].text == "::"):
            if toks[j].kind == "id":
                name_parts.append(toks[j].text)
            j += 1
        if j < n and toks[j].text == "=":
            # namespace alias: record for the raw-sleep lint, then skip
            k = j + 1
            target = []
            while k < n and toks[k].text != ";":
                target.append(toks[k].text)
                k += 1
            if name_parts:
                NS_ALIASES.setdefault(self.path, {})[name_parts[0]] = \
                    "".join(target)
            self.i = k + 1
            return
        if j < n and toks[j].text == "{":
            # anonymous namespaces are transparent: internal linkage does
            # not matter to the call graph, and qnames stay stable
            self.scopes.append(("ns", "::".join(name_parts)))
            self.i = j + 1
        else:
            self.i = j + 1

    def handle_class(self):
        """Returns False when this is not a class definition head."""
        toks, n = self.toks, len(self.toks)
        j = self.i + 1
        name = ""
        while j < n:
            t = toks[j]
            if t.kind == "id":
                if t.text in DECL_NOISE_MACROS or t.text == "alignas":
                    j += 1
                    if j < n and toks[j].text == "(":
                        j = _match(toks, j, "(", ")")
                    continue
                if t.text == "final":
                    j += 1
                    continue
                name = t.text
                j += 1
                if j < n and toks[j].text == "<":
                    j = _skip_template_args(toks, j)
                continue
            if t.text == ":":       # base clause
                while j < n and toks[j].text not in ("{", ";"):
                    j += 1
                continue
            if t.text == "{":
                if not name:
                    return False
                self.scopes.append(("class", name))
                cq = self.cls_qname()
                self.m.classes.add(cq)
                self.m.class_simple[name].append(cq)
                self.i = j + 1
                return True
            if t.text == ";":        # forward declaration
                self.i = j + 1
                return True
            if t.text == "[":        # attribute
                j = _match(toks, j, "[", "]")
                continue
            return False
        return False

    def skip_enum(self):
        toks, n = self.toks, len(self.toks)
        j = self.i + 1
        # remember LockRank enumerator values: enum class LockRank { kX = 10, }
        while j < n and toks[j].text not in ("{", ";"):
            j += 1
        names = [t.text for t in toks[self.i:j] if t.kind == "id"]
        is_lockrank = "LockRank" in names
        if j < n and toks[j].text == "{":
            end = _match(toks, j, "{", "}")
            if is_lockrank:
                body = toks[j + 1:end - 1]
                k = 0
                while k < len(body):
                    if body[k].kind == "id" and k + 2 < len(body) \
                            and body[k + 1].text == "=" \
                            and body[k + 2].kind == "num":
                        self.m.rank_values[body[k].text] = int(body[k + 2].text)
                    k += 1
            self.i = end
        else:
            self.i = j + 1

    def handle_alias(self):
        toks, n = self.toks, len(self.toks)
        j = self.i
        chunk = []
        while j < n and toks[j].text != ";":
            chunk.append(toks[j])
            j += 1
        TYPE_ALIASES.setdefault(self.path, []).append(chunk)
        self.i = j + 1

    # ---- declarations: functions and members ----
    def parse_decl_chunk(self):
        """Parse one declaration at namespace/class scope: a function
        definition/declaration, or a (member) variable. Advances self.i."""
        toks, n = self.toks, len(self.toks)
        start = self.i
        j = start
        name_idx = -1          # declarator name position (id before '(')
        params_end = -1
        saw_eq = False
        head_anns = set()
        head_escape = ""
        head_acq = []
        while j < n:
            t = toks[j]
            if t.text == "=" and name_idx < 0 \
                    and not (j > start and toks[j - 1].text == "operator"):
                # the `=` of `operator=` is part of the declarator name,
                # not a variable initializer — treating it as one made the
                # parser swallow an inline move-assignment body plus the
                # next member's, desyncing brace/scope tracking for the
                # rest of the class (and losing its qname prefix).
                saw_eq = True
            if t.kind == "id" and t.text in ARU_FLAG_MACROS:
                head_anns.add(t.text)
            if t.kind == "id" and t.text in ARU_ARG_MACROS \
                    and j + 1 < n and toks[j + 1].text == "(":
                end = _match(toks, j + 1, "(", ")")
                arg = toks[j + 2:end - 1]
                if t.text == "ARU_ANALYZE_ESCAPE":
                    head_anns.add("ARU_ANALYZE_ESCAPE")
                    head_escape = " ".join(a.text.strip('"') for a in arg)
                else:
                    head_anns.add("ARU_ACQUIRES_RANK")
                    head_acq.extend(a.text for a in arg if a.kind in
                                    ("id", "num") and a.text != "LockRank")
                j = end
                continue
            if t.kind == "id" and t.text in DECL_NOISE_MACROS \
                    and j + 1 < n and toks[j + 1].text == "(":
                j = _match(toks, j + 1, "(", ")")
                continue
            if t.text == "(" and not saw_eq and j > start \
                    and name_idx < 0:
                prev = toks[j - 1]
                if prev.kind == "id" and prev.text not in CPP_KEYWORDS:
                    name_idx = j - 1
                    params_end = _match(toks, j, "(", ")")
                    j = params_end
                    continue
                if prev.kind == "id" and prev.text == "operator":
                    name_idx = j - 1
                    params_end = _match(toks, j, "(", ")")
                    j = params_end
                    continue
                if prev.text in (">", "=") or prev.kind == "punct":
                    # operator with symbol name: operator==(...), etc.
                    k = j - 1
                    while k > start and toks[k].kind == "punct" \
                            and toks[k].text not in (";", "{", "}"):
                        k -= 1
                    if k >= start and toks[k].text == "operator":
                        name_idx = k
                        params_end = _match(toks, j, "(", ")")
                        j = params_end
                        continue
                # not a declarator; treat as expression/initializer
                j = _match(toks, j, "(", ")")
                continue
            if t.text == "{":
                if name_idx >= 0 and params_end > 0:
                    self.finish_function(start, name_idx, params_end, j,
                                         head_anns, head_escape, head_acq)
                    return
                # brace initializer on a variable: skip to ';'
                end = _match(toks, j, "{", "}")
                self.parse_member_var(start, end)
                while end < n and toks[end].text != ";":
                    end += 1
                self.i = end + 1
                return
            if t.text == ":" and name_idx >= 0 and params_end > 0:
                # constructor init list: calls in it count as body calls
                k = j
                while k < n and toks[k].text != "{":
                    if toks[k].text == "(":
                        k = _match(toks, k, "(", ")")
                        continue
                    if toks[k].text == ";":   # was not an init list
                        break
                    k += 1
                if k < n and toks[k].text == "{":
                    self.finish_function(start, name_idx, params_end, k,
                                         head_anns, head_escape, head_acq,
                                         init_start=j)
                    return
                j = k
                continue
            if t.text == ";":
                if name_idx >= 0 and params_end > 0 and not saw_eq:
                    self.record_decl(start, name_idx, head_anns,
                                     head_escape, head_acq)
                else:
                    self.parse_member_var(start, j)
                self.i = j + 1
                return
            if t.text == "}":
                self.i = j  # stray: let the main loop pop the scope
                return
            j += 1
        self.i = n

    def record_decl(self, start, name_idx, anns, escape, acq):
        """A declaration (no body): annotations attach to the qname so
        headers can annotate functions defined out-of-line."""
        name = self._declarator_name(name_idx)
        if not name:
            return
        fn = Func(qname=self.qname_for(name), name=name.split("::")[-1],
                  cls=self.cls_qname(), file=self.path,
                  line=self.toks[name_idx].line)
        self._apply_anns(fn, anns, escape, acq)
        self._apply_tsa(fn, start, name_idx)
        self.m.add_func(fn)

    def finish_function(self, start, name_idx, params_end, body_open,
                        anns, escape, acq, init_start=None):
        toks = self.toks
        name = self._declarator_name(name_idx)
        body_close = _match(toks, body_open, "{", "}")
        if not name:
            self.i = body_close
            return
        # Out-of-line member: "Class::name" -> attach to the class.
        cls = self.cls_qname()
        simple = name.split("::")[-1]
        if "::" in name:
            owner = name.rsplit("::", 1)[0]
            cands = self.m.class_simple.get(owner.split("::")[-1], [])
            cls = cands[0] if cands else self.qname_for(owner)
            qname = (cls + "::" + simple) if cls else self.qname_for(name)
        else:
            qname = self.qname_for(name)
        body = toks[(init_start if init_start is not None else body_open):
                    body_close]
        fn = Func(qname=qname, name=simple, cls=cls, file=self.path,
                  line=toks[name_idx].line, body=body, is_def=True)
        fn.params = toks[name_idx + 1:params_end]
        self._apply_anns(fn, anns, escape, acq)
        self._apply_tsa(fn, start, name_idx)
        # qualifier-position annotations (between ')' and '{') were
        # already collected by the head scan; now mine the body.
        analyze_body(fn, self.m)
        self.m.add_func(fn)
        self.i = body_close

    def _declarator_name(self, name_idx):
        """Reconstruct a possibly qualified declarator name ending at
        name_idx: walks back over `id ::` pairs and `~`."""
        toks = self.toks
        if toks[name_idx].text == "operator":
            j = name_idx + 1
            sym = []
            while j < len(toks) and toks[j].text != "(":
                sym.append(toks[j].text)
                j += 1
            return "operator" + "".join(sym)
        parts = [toks[name_idx].text]
        j = name_idx - 1
        if j >= 0 and toks[j].text == "~":
            parts[0] = "~" + parts[0]
            j -= 1
        while j - 1 >= 0 and toks[j].text == "::" and toks[j - 1].kind == "id":
            parts.insert(0, toks[j - 1].text)
            j -= 2
        return "::".join(parts)

    def _apply_anns(self, fn, anns, escape, acq):
        mapping = {"ARU_HOT_PATH": "hot", "ARU_MAY_BLOCK": "may_block",
                   "ARU_ALLOCATES": "allocates",
                   "ARU_NOTHROW_PATH": "nothrow",
                   "ARU_ANALYZE_ESCAPE": "escape",
                   "ARU_ACQUIRES_RANK": "acquires_rank"}
        fn.annotations |= {mapping[a] for a in anns if a in mapping}
        fn.escape_reason = escape or fn.escape_reason
        fn.acquires_ranks.extend(acq)

    def _apply_tsa(self, fn, start, name_idx):
        """REQUIRES(mu) in the head -> held-at-entry mutexes."""
        toks = self.toks
        j = start
        while j < len(toks) and toks[j].text != "{" and toks[j].text != ";":
            if toks[j].kind == "id" and toks[j].text in ("REQUIRES",) \
                    and j + 1 < len(toks) and toks[j + 1].text == "(":
                end = _match(toks, j + 1, "(", ")")
                ids = [t.text for t in toks[j + 2:end - 1] if t.kind == "id"]
                fn.requires.extend(ids)
                j = end
                continue
            j += 1

    def parse_member_var(self, start, end):
        """Member/namespace-scope variable declaration in toks[start:end).
        Records the member's type key and, for util::Mutex members, the
        declared LockRank."""
        toks = self.toks
        chunk = toks[start:end]
        if not chunk:
            return
        # strip attribute-style macros (GUARDED_BY(mu_), ...) and their
        # argument lists: they follow the member name and would otherwise
        # be mistaken for it
        stripped = []
        k = 0
        while k < len(chunk):
            t = chunk[k]
            if t.kind == "id" and t.text in DECL_NOISE_MACROS:
                if k + 1 < len(chunk) and chunk[k + 1].text == "(":
                    depth = 0
                    k += 1
                    while k < len(chunk):
                        if chunk[k].text == "(":
                            depth += 1
                        elif chunk[k].text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        k += 1
                k += 1
                continue
            stripped.append(t)
            k += 1
        chunk = stripped
        if not chunk:
            return
        # find the variable name: last id before '{' '=' '[' or end
        stop = len(chunk)
        for k, t in enumerate(chunk):
            if t.text in ("{", "=", "["):
                stop = k
                break
        ids = [(k, t) for k, t in enumerate(chunk[:stop]) if t.kind == "id"]
        if not ids:
            return
        name_k, name_t = ids[-1]
        type_ids = [t.text for _, t in ids[:-1]
                    if t.text not in ("const", "static", "mutable", "inline",
                                      "constexpr", "std", "util", "unsigned",
                                      "struct", "class", "thread_local")]
        if not type_ids:
            return
        var = name_t.text
        cls = self.cls_qname()
        is_mutex = "Mutex" in type_ids
        if is_mutex:
            rank = ""
            for k in range(stop, len(chunk)):
                # `util::LockRank::kX` in the initializer (parse-order
                # independent: the enum may live in a not-yet-seen file)
                if chunk[k].kind == "id" and chunk[k].text == "LockRank":
                    for k2 in range(k + 1, min(k + 3, len(chunk))):
                        if chunk[k2].kind == "id":
                            rank = chunk[k2].text
                            break
                    break
            if cls:
                self.m.mutex_ranks[(cls, var)] = rank
            else:
                self.m.ns_mutex_ranks[var] = rank
        if cls:
            # type key: innermost/last type identifier (unwraps
            # unique_ptr<T>, shared_ptr<T>, T*, T&)
            self.m.members[(cls, var)] = type_ids[-1]


# file path -> {alias: target} for "namespace x = std::this_thread;"
NS_ALIASES = {}
# file path -> [token chunks] for using/typedef declarations
TYPE_ALIASES = {}
# file path -> full token stream (for the lint rules)
FILE_TOKS = {}

BUILTIN_TYPE_NAMES = {
    "int", "bool", "char", "float", "double", "void", "auto", "long",
    "short", "unsigned", "signed", "size_t", "ssize_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "uintptr_t", "intptr_t", "byte", "nullptr_t",
}

GUARD_TYPES = {"MutexLock", "UniqueLock"}


def analyze_body(fn: Func, m: Model):
    """Mine a function body's tokens: call sites, guard acquisitions
    with their lexical extent, operator new, throw, in-body escapes."""
    toks = fn.body
    n = len(toks)
    # brace depth per token (depth of the scope the token lives in)
    depth = [0] * n
    d = 0
    for k, t in enumerate(toks):
        if t.text == "}":
            d -= 1
        depth[k] = d
        if t.text == "{":
            d += 1

    def guard_end(idx):
        d0 = depth[idx]
        for k in range(idx + 1, n):
            if depth[k] < d0:
                return k
        return n

    k = 0
    while k < n:
        t = toks[k]
        if t.kind != "id":
            k += 1
            continue
        # ---- in-body escape marker ----
        if t.text == "ARU_ANALYZE_ESCAPE" and k + 1 < n \
                and toks[k + 1].text == "(":
            end = _match(toks, k + 1, "(", ")")
            fn.annotations.add("escape")
            fn.escape_reason = fn.escape_reason or " ".join(
                a.text.strip('"') for a in toks[k + 2:end - 1])
            k = end
            continue
        # ---- operator new ----
        if t.text == "new":
            fn.news.append((k, t.line))
            k += 1
            continue
        if t.text == "throw":
            fn.throws.append((k, t.line))
            k += 1
            continue
        # ---- scoped guard declaration: util::MutexLock l(mu_); ----
        if t.text in GUARD_TYPES and k + 2 < n and toks[k + 1].kind == "id" \
                and toks[k + 2].text == "(":
            end = _match(toks, k + 2, "(", ")")
            args = toks[k + 3:end - 1]
            mutex = ""
            for a in args:
                if a.kind == "id":
                    mutex = a.text        # last identifier of the expr
            fn.acquires.append(AcquireSite(
                mutex_expr=mutex, rank=None, var=toks[k + 1].text,
                tok_idx=k, end_idx=guard_end(k), line=t.line, file=fn.file))
            k = end
            continue
        # ---- call site ----
        if t.text in CPP_KEYWORDS or t.text in GUARD_TYPES \
                or t.text in DECL_NOISE_MACROS or t.text in ARU_FLAG_MACROS \
                or t.text in ARU_ARG_MACROS:
            k += 1
            continue
        j = k + 1
        if j < n and toks[j].text == "<":
            j2 = _skip_template_args(toks, j)
            if j2 > j and j2 < n and toks[j2].text == "(":
                j = j2
        if j < n and toks[j].text == "(":
            prev = toks[k - 1] if k > 0 else None
            # `Type name(...)`: a declaration -> constructor call of Type
            if prev is not None and prev.kind == "id" \
                    and prev.text not in CPP_KEYWORDS:
                if prev.text in BUILTIN_TYPE_NAMES:
                    k = j  # builtin-typed local: no call
                    continue
                fn.calls.append(CallSite(name=prev.text, qualifier="",
                                         receiver="", tok_idx=k,
                                         line=t.line, file=fn.file))
                k = j
                continue
            qualifier, receiver = "", ""
            if prev is not None and prev.text == "::":
                qparts = []
                b = k - 1
                while b - 1 >= 0 and toks[b].text == "::" \
                        and toks[b - 1].kind == "id":
                    qparts.insert(0, toks[b - 1].text)
                    b -= 2
                qualifier = "::".join(qparts)
            elif prev is not None and prev.text in (".", "->"):
                b = k - 2
                if b >= 0 and toks[b].kind == "id":
                    receiver = toks[b].text
                elif b >= 0 and toks[b].text == ")":
                    receiver = "?expr"
                elif b >= 0 and toks[b].text == "]":
                    receiver = "?expr"
            fn.calls.append(CallSite(name=t.text, qualifier=qualifier,
                                     receiver=receiver, tok_idx=k,
                                     line=t.line, file=fn.file))
            k = j
            continue
        k += 1

    # ---- thread-spawn arguments run on the new thread, not here ----
    # Calls inside `std::jthread(...)` / `std::thread(...)` construction
    # arguments (typically a lambda body) are real call-graph edges but
    # are NOT made under any lock the spawning function holds: the body
    # executes later, on the spawned thread, with an empty lock set.
    fn.deferred = []
    for k, t in enumerate(toks):
        if t.kind == "id" and t.text in ("jthread", "thread") \
                and k + 1 < n and toks[k + 1].text == "(":
            end_idx = _match(toks, k + 1, "(", ")")
            fn.deferred.append((k, end_idx))

    # ---- manual lock()/unlock() handling ----
    # `v.unlock()` on a guard variable ends its extent early;
    # `mu_.lock()` acquires until `mu_.unlock()` or function end.
    guard_vars = {a.var: a for a in fn.acquires if a.var}
    for c in fn.calls:
        if c.name == "unlock" and c.receiver in guard_vars:
            a = guard_vars[c.receiver]
            if c.tok_idx < a.end_idx:
                a.end_idx = c.tok_idx
        elif c.name == "lock" and c.receiver and c.receiver != "?expr" \
                and c.receiver not in guard_vars:
            end = n
            for c2 in fn.calls:
                if c2.name == "unlock" and c2.receiver == c.receiver \
                        and c2.tok_idx > c.tok_idx:
                    end = min(end, c2.tok_idx)
            fn.acquires.append(AcquireSite(
                mutex_expr=c.receiver, rank=None, var="",
                tok_idx=c.tok_idx, end_idx=end, line=c.line, file=fn.file))


# --------------------------------------------------------------------------
# Resolution
# --------------------------------------------------------------------------

def build_locals(m: Model):
    """Second pass once every class is known: map local/param variables
    of project class types so receiver calls resolve precisely."""
    for fn in m.funcs.values():
        locals_ = {}
        for toks in (getattr(fn, "params", []), fn.body):
            n = len(toks)
            for k, t in enumerate(toks):
                if t.kind != "id" or t.text not in m.class_simple:
                    continue
                j = k + 1
                while j < n and toks[j].text in ("*", "&", "&&", "const"):
                    j += 1
                if j < n and toks[j].kind == "id" \
                        and toks[j].text not in CPP_KEYWORDS:
                    nxt = toks[j + 1].text if j + 1 < n else ";"
                    if nxt in ("(", "{", "=", ";", ",", ")"):
                        locals_[toks[j].text] = t.text
        fn.locals = locals_


def class_methods(m: Model, cls: str, name: str):
    return [f for f in m.by_name.get(name, []) if f.cls == cls]


def resolve_call(m: Model, fn: Func, c: CallSite):
    """Resolve a call site to project functions. Empty list => not a
    project function (builtin tables apply by name)."""
    name = c.name
    if c.qualifier:
        q = c.qualifier
        if q.split("::")[0] in ("std", "boost"):
            return []
        full = q + "::" + name
        exact = [f for qn, f in m.funcs.items()
                 if qn == full or qn.endswith("::" + full)]
        if exact:
            return exact
        # Class::method via the class simple-name index
        cands = m.class_simple.get(q.split("::")[-1], [])
        out = []
        for cq in cands:
            out.extend(class_methods(m, cq, name))
        return out
    if c.receiver:
        if c.receiver == "this":
            return class_methods(m, fn.cls, name)
        cls_key = None
        locals_ = getattr(fn, "locals", {})
        if c.receiver in locals_:
            cls_key = locals_[c.receiver]
        elif fn.cls and (fn.cls, c.receiver) in m.members:
            cls_key = m.members[(fn.cls, c.receiver)]
        if cls_key:
            out = []
            for cq in m.class_simple.get(cls_key, []):
                out.extend(class_methods(m, cq, name))
            return out
        if name in GENERIC_METHOD_NAMES:
            return []
        # unknown receiver: over-approximate to any method of that name
        return [f for f in m.by_name.get(name, []) if f.cls]
    # unqualified free-style call: own class first, then same-file free
    # functions (anonymous-namespace helpers), then free functions
    # anywhere, and only then the full over-approximation
    own = class_methods(m, fn.cls, name) if fn.cls else []
    if own:
        return own
    if name in GENERIC_METHOD_NAMES:
        return []
    cands = list(m.by_name.get(name, []))
    same_file_free = [f for f in cands if not f.cls and f.file == fn.file]
    if same_file_free:
        return same_file_free
    free = [f for f in cands if not f.cls]
    if free:
        return free
    return cands


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

@dataclass
class Finding:
    rule: str
    func: str            # qualified enclosing function
    callee: str          # callee name / "operator new" / "throw" / rank pair
    file: str
    line: int
    chain: list          # call chain from a root to func
    note: str = ""

    @property
    def key(self):
        return f"{self.rule} {self.func} {self.callee}"


def _rank_value(m: Model, rank_name: str):
    if not rank_name:
        return None
    if rank_name in m.rank_values:
        return m.rank_values[rank_name]
    if re.fullmatch(r"\d+", rank_name):
        return int(rank_name)
    return None


def _acquire_rank(m: Model, fn: Func, a: AcquireSite):
    """Resolve the LockRank of an acquisition site's mutex expression."""
    if fn.cls and (fn.cls, a.mutex_expr) in m.mutex_ranks:
        return _rank_value(m, m.mutex_ranks[(fn.cls, a.mutex_expr)])
    if a.mutex_expr in m.ns_mutex_ranks:
        return _rank_value(m, m.ns_mutex_ranks[a.mutex_expr])
    # unique ranked member of that name across all classes (e.g. a guard
    # on `other.stats_mu_` from a free function)
    ranks = {v for (c, mname), v in m.mutex_ranks.items()
             if mname == a.mutex_expr}
    if len(ranks) == 1:
        return _rank_value(m, next(iter(ranks)))
    return None


def resolve_acquire_ranks(m: Model):
    for fn in m.funcs.values():
        for a in fn.acquires:
            a.rank = _acquire_rank(m, fn, a)


def _entry_held(m: Model, fn: Func):
    """Ranks held at entry, from REQUIRES(mu) annotations."""
    held = []
    for mu in fn.requires:
        r = _acquire_rank(m, fn, AcquireSite(mu, None, "", 0, 0, 0, ""))
        if r is not None:
            held.append(r)
    return held


def _held_at(m: Model, fn: Func, tok_idx: int, exclude=None):
    held = list(_entry_held(m, fn))
    for a in fn.acquires:
        if a is exclude or a.rank is None:
            continue
        if a.tok_idx < tok_idx < a.end_idx:
            held.append(a.rank)
    return held


def rule_hot(m: Model, findings, sanctioned):
    """BFS from ARU_HOT_PATH roots; flag transitive allocation/blocking."""
    roots = [f for f in m.funcs.values() if "hot" in f.annotations and f.is_def]
    parent = {}
    seen = set()
    queue = []
    for r in roots:
        if r.qname not in seen:
            seen.add(r.qname)
            queue.append(r)

    def chain(fn):
        out = [fn.qname]
        q = fn.qname
        while q in parent:
            q = parent[q]
            out.insert(0, q)
        return out

    while queue:
        fn = queue.pop(0)
        for idx, line in fn.news:
            findings.append(Finding("hot-alloc", fn.qname, "operator new",
                                    fn.file, line, chain(fn)))
        for c in fn.calls:
            targets = [t for t in resolve_call(m, fn, c) if t.is_def
                       or t.annotations]
            if not targets:
                if c.name in ALLOCATING_NAMES:
                    findings.append(Finding("hot-alloc", fn.qname, c.name,
                                            fn.file, c.line, chain(fn)))
                elif c.name in BLOCKING_NAMES:
                    findings.append(Finding("hot-block", fn.qname, c.name,
                                            fn.file, c.line, chain(fn)))
                continue
            for t in targets:
                if t.qname == fn.qname:
                    continue
                if t.is_escape:
                    sanctioned.append((fn.qname, t.qname, t.escape_reason))
                    continue
                flagged = False
                if "allocates" in t.annotations:
                    findings.append(Finding("hot-alloc", fn.qname, t.name,
                                            fn.file, c.line, chain(fn),
                                            note="callee is ARU_ALLOCATES"))
                    flagged = True
                if "may_block" in t.annotations:
                    findings.append(Finding("hot-block", fn.qname, t.name,
                                            fn.file, c.line, chain(fn),
                                            note="callee is ARU_MAY_BLOCK"))
                    flagged = True
                if not flagged and t.is_def and t.qname not in seen:
                    seen.add(t.qname)
                    parent[t.qname] = fn.qname
                    queue.append(t)


def _min_acquired(m: Model, fn: Func, memo, stack):
    """(value, where_qname, line) of the lowest-rank acquisition
    reachable through fn, or None. Cycle-safe."""
    if fn.qname in memo:
        return memo[fn.qname]
    if fn.qname in stack:
        return None
    stack.add(fn.qname)
    best = None
    for a in fn.acquires:
        if a.rank is not None:
            cand = (a.rank, fn.qname, a.line)
            if best is None or cand[0] < best[0]:
                best = cand
    for rname in fn.acquires_ranks:
        v = _rank_value(m, rname)
        if v is not None and (best is None or v < best[0]):
            best = (v, fn.qname, fn.line)
    for c in fn.calls:
        for t in resolve_call(m, fn, c):
            if t.qname == fn.qname or not (t.is_def or t.acquires_ranks):
                continue
            sub = _min_acquired(m, t, memo, stack)
            if sub is not None and (best is None or sub[0] < best[0]):
                best = sub
    stack.discard(fn.qname)
    memo[fn.qname] = best
    return best


def rule_ranks(m: Model, findings):
    """LockRank partial order: while rank R is held, every acquisition
    (direct or through any callee) must have rank strictly > R."""
    memo = {}
    for fn in m.funcs.values():
        if not fn.is_def:
            continue
        # direct guard-under-guard
        for a in fn.acquires:
            if a.rank is None:
                continue
            held = _held_at(m, fn, a.tok_idx, exclude=a)
            if held and a.rank <= max(held):
                findings.append(Finding(
                    "rank-order", fn.qname, a.mutex_expr, a.file, a.line,
                    [fn.qname],
                    note=f"acquires rank {a.rank} while rank "
                         f"{max(held)} is held"))
        # transitive: calls made while a guard is lexically held
        deferred = getattr(fn, "deferred", [])
        for c in fn.calls:
            if any(s < c.tok_idx < e for s, e in deferred):
                continue
            held = _held_at(m, fn, c.tok_idx)
            if not held:
                continue
            for t in resolve_call(m, fn, c):
                if t.qname == fn.qname:
                    continue
                # REQUIRES callees run under the already-held lock and
                # were checked with that lock in their own entry set
                if t.requires:
                    continue
                sub = _min_acquired(m, t, memo, set())
                if sub is not None and sub[0] <= max(held):
                    findings.append(Finding(
                        "rank-order", fn.qname, t.name, fn.file, c.line,
                        [fn.qname, sub[1]],
                        note=f"callee path acquires rank {sub[0]} at "
                             f"{sub[1]} while rank {max(held)} is held"))


def rule_nothrow(m: Model, findings):
    """No throw-paths reachable from ARU_NOTHROW_PATH roots."""
    roots = [f for f in m.funcs.values()
             if "nothrow" in f.annotations and f.is_def]
    parent = {}
    seen = {r.qname for r in roots}
    queue = list(roots)

    def chain(fn):
        out = [fn.qname]
        q = fn.qname
        while q in parent:
            q = parent[q]
            out.insert(0, q)
        return out

    while queue:
        fn = queue.pop(0)
        for idx, line in fn.throws:
            findings.append(Finding("nothrow-throw", fn.qname, "throw",
                                    fn.file, line, chain(fn)))
        for c in fn.calls:
            targets = [t for t in resolve_call(m, fn, c)
                       if t.is_def or t.annotations]
            if not targets:
                if c.name in THROWING_NAMES and (c.receiver or c.qualifier
                                                 or c.name.startswith("sto")):
                    findings.append(Finding(
                        "nothrow-throw", fn.qname, c.name, fn.file, c.line,
                        chain(fn), note="throwing-by-contract callee"))
                continue
            for t in targets:
                if t.qname == fn.qname or t.is_escape:
                    continue
                if t.is_def and t.qname not in seen:
                    seen.add(t.qname)
                    parent[t.qname] = fn.qname
                    queue.append(t)


# --------------------------------------------------------------------------
# AST-level lint rules (migrated from scripts/lint.sh greps)
# --------------------------------------------------------------------------

def lint_rules(m: Model, rel_of, allow):
    """raw-payload and raw-sleep (alias-aware), telemetry-http, send-vec."""
    findings = []

    def allowed(rule, path):
        return (rule, rel_of(path)) in allow

    # raw-payload: std::vector<std::byte>, through using/typedef chains.
    payload_aliases = set()
    changed = True
    while changed:
        changed = False
        for path, chunks in TYPE_ALIASES.items():
            for chunk in chunks:
                texts = [t.text for t in chunk]
                name = None
                if texts and texts[0] == "using" and "=" in texts:
                    name = texts[1] if len(texts) > 1 else None
                elif texts and texts[0] == "typedef":
                    name = texts[-1]
                if not name or name in payload_aliases:
                    continue
                rhs = texts[2:]
                if ("vector" in rhs and "byte" in rhs) or \
                        any(a in rhs for a in payload_aliases):
                    payload_aliases.add(name)
                    changed = True

    for path, toks in FILE_TOKS.items():
        if allowed("raw-payload", path):
            pass
        else:
            n = len(toks)
            for k, t in enumerate(toks):
                hit = None
                if t.text == "vector" and k + 1 < n \
                        and toks[k + 1].text == "<":
                    end = _skip_template_args(toks, k + 1)
                    # element type exactly std::byte — a vector of
                    # std::byte* (the pool's free lists) is fine
                    args = toks[k + 1:end]
                    if any(x.text == "byte" and
                           (i2 + 1 >= len(args) or
                            args[i2 + 1].text not in ("*", "&"))
                           for i2, x in enumerate(args)):
                        hit = "std::vector<std::byte>"
                elif t.kind == "id" and t.text in payload_aliases:
                    prev = toks[k - 1].text if k else ""
                    nxt = toks[k + 1].text if k + 1 < n else ""
                    if prev not in ("using", "typedef") and nxt != "=":
                        hit = f"alias of std::vector<std::byte> ({t.text})"
                if hit:
                    findings.append(Finding(
                        "raw-payload", rel_of(path), hit, path, t.line, [],
                        note="payloads go through runtime::PayloadBuffer "
                             "(pooled, no zero-fill)"))

        # telemetry-http: the exporter's HTTP request parsing is an
        # implementation detail of src/telemetry/ — referencing
        # parse_http_request or HttpRequest anywhere else would let ad-hoc
        # HTTP handling creep into other subsystems (http_get is the
        # public client helper; use that).
        if "/telemetry/" not in path.replace(os.sep, "/") \
                and not allowed("telemetry-http", path):
            for t in toks:
                if t.kind == "id" and t.text in ("parse_http_request",
                                                 "HttpRequest"):
                    findings.append(Finding(
                        "telemetry-http", rel_of(path), t.text, path, t.line,
                        [],
                        note="HTTP parsing lives in src/telemetry/ only; "
                             "clients use telemetry::http_get"))

        # send-vec: TcpStream::send_vec is the raw scatter/gather
        # primitive; only net::SendBuffer (socket.{hpp,cpp}) may call it.
        # Routing every frame through one buffered writer is what
        # guarantees frames can never interleave mid-stream — a direct
        # send_vec elsewhere could slip between a staged batch and its
        # flush and desynchronize the connection.
        if not path.replace(os.sep, "/").endswith(("/net/socket.hpp",
                                                   "/net/socket.cpp")) \
                and not allowed("send-vec", path):
            for t in toks:
                if t.kind == "id" and t.text == "send_vec":
                    findings.append(Finding(
                        "send-vec", rel_of(path), t.text, path, t.line, [],
                        note="frames leave through net::SendBuffer "
                             "(flush/flush_with), the only legal "
                             "send_vec caller"))

        # raw-sleep: std::this_thread::sleep_for/until, via namespace
        # aliases and using-declarations too.
        if allowed("raw-sleep", path):
            continue
        aliases = {a for a, tgt in NS_ALIASES.get(path, {}).items()
                   if "this_thread" in tgt}
        bare_ok = any(
            c and c[0].text == "using" and "=" not in [x.text for x in c]
            and "this_thread" in [x.text for x in c]
            for c in TYPE_ALIASES.get(path, []))
        n = len(toks)
        for k, t in enumerate(toks):
            if t.text not in ("sleep_for", "sleep_until"):
                continue
            qual_ok = False
            if k >= 2 and toks[k - 1].text == "::" and \
                    toks[k - 2].text in ({"this_thread"} | aliases):
                qual_ok = True
            bare = (k + 1 < n and toks[k + 1].text == "(" and
                    (k == 0 or toks[k - 1].text not in ("::", ".", "->")))
            if qual_ok or (bare and bare_ok):
                findings.append(Finding(
                    "raw-sleep", rel_of(path), t.text, path, t.line, [],
                    note="runtime sleeping goes through util::Clock "
                         "(ManualClock in tests)"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def load_compile_db(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"aru-analyze: cannot read compile database {path}: {e}",
              file=sys.stderr)
        print("  configure a build first (any preset exports "
              "compile_commands.json),", file=sys.stderr)
        print("  e.g.: cmake --preset release && "
              "scripts/analyze/aru_analyze.py --compile-db "
              "build-release/compile_commands.json", file=sys.stderr)
        sys.exit(2)


def collect_sources(args, root):
    """(files, defines): absolute paths to parse + preprocessor defines."""
    defines = {}
    for d in args.define:
        name, _, val = d.partition("=")
        defines[name] = val or "1"
    files = []
    if args.sources:
        for srcdir in args.sources:
            base = srcdir if os.path.isabs(srcdir) else os.path.join(root,
                                                                     srcdir)
            for ext in ("cpp", "hpp", "h", "cc"):
                files.extend(globmod.glob(os.path.join(base, "**", f"*.{ext}"),
                                          recursive=True))
        return sorted(set(files)), defines
    db = load_compile_db(args.compile_db)
    prefixes = [os.path.normpath(p) for p in args.src_prefix]
    for entry in db:
        fpath = entry.get("file", "")
        if not os.path.isabs(fpath):
            fpath = os.path.normpath(os.path.join(entry.get("directory", ""),
                                                  fpath))
        rel = os.path.relpath(fpath, root)
        if not any(rel == p or rel.startswith(p + os.sep) for p in prefixes):
            continue
        files.append(fpath)
        argv = entry.get("arguments") or shlex.split(entry.get("command", ""))
        for a in argv:
            if a.startswith("-D"):
                name, _, val = a[2:].partition("=")
                defines.setdefault(name, val or "1")
    for p in prefixes:
        for ext in ("hpp", "h"):
            files.extend(globmod.glob(os.path.join(root, p, "**", f"*.{ext}"),
                                      recursive=True))
    return sorted(set(files)), defines


def load_allowlist(path):
    allow = set()
    if path and os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    parts = line.split(None, 1)
                    if len(parts) == 2:
                        allow.add((parts[0], parts[1]))
    return allow


def load_baseline(path):
    keys = []
    if path and os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    keys.append(line)
    return keys


def report(findings, verbose):
    by_rule = defaultdict(list)
    for f in findings:
        by_rule[f.rule].append(f)
    for rule in sorted(by_rule):
        for f in by_rule[rule]:
            print(f"aru-analyze [{rule}]: {f.func} -> {f.callee}"
                  f"  ({f.file}:{f.line})")
            if f.note:
                print(f"    note: {f.note}")
            if len(f.chain) > 1:
                print(f"    path: {' -> '.join(f.chain)}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="aru_analyze.py",
        description="stampede call-graph static analyzer (see "
                    "docs/ARCHITECTURE.md, 'Static analysis')")
    ap.add_argument("--compile-db", default="build/compile_commands.json",
                    help="compile database (default: %(default)s)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--src-prefix", action="append", default=None,
                    help="source prefix under root to analyze "
                         "(repeatable; default: src)")
    ap.add_argument("--sources", action="append", default=None,
                    help="analyze all sources under this directory instead "
                         "of reading a compile database (fixtures, lint-only)")
    ap.add_argument("--define", "-D", action="append", default=[],
                    metavar="NAME[=VAL]", help="extra preprocessor define")
    ap.add_argument("--rules", default="hot,ranks,nothrow,lint",
                    help="comma list of rules to run (default: %(default)s)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file of reviewed findings "
                         "(default: scripts/analyze/baseline.txt under root; "
                         "'none' disables)")
    ap.add_argument("--allowlist", default=None,
                    help="lint allowlist (default: scripts/lint_allowlist.txt)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current findings")
    ap.add_argument("--verbose", "-v", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    args.src_prefix = args.src_prefix or ["src"]
    if not os.path.isabs(args.compile_db):
        args.compile_db = os.path.join(root, args.compile_db)
    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    bad = rules - {"hot", "ranks", "nothrow", "lint"}
    if bad:
        print(f"aru-analyze: unknown rule(s): {', '.join(sorted(bad))}",
              file=sys.stderr)
        return 2

    if args.sources is None and rules == {"lint"}:
        # lint rules are purely lexical: no compile database needed
        args.sources = [os.path.join(root, p) for p in args.src_prefix]
    files, defines = collect_sources(args, root)
    if not files:
        print("aru-analyze: no source files found", file=sys.stderr)
        return 2

    def rel_of(path):
        return os.path.relpath(path, root).replace(os.sep, "/")

    # util/ first so LockRank values and Mutex are known early.
    files.sort(key=lambda p: (0 if f"{os.sep}util{os.sep}" in p else 1, p))
    model = Model()
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"aru-analyze: cannot read {path}: {e}", file=sys.stderr)
            return 2
        toks = tokenize(preprocess(text, defines))
        FILE_TOKS[path] = toks
        Parser(model, path, toks).run()
    build_locals(model)
    resolve_acquire_ranks(model)
    for fn in model.funcs.values():
        fn.file = rel_of(fn.file)

    findings = []
    sanctioned = []
    if "hot" in rules:
        rule_hot(model, findings, sanctioned)
    if "ranks" in rules:
        rule_ranks(model, findings)
    if "nothrow" in rules:
        rule_nothrow(model, findings)
    if "lint" in rules:
        allow = load_allowlist(args.allowlist or
                               os.path.join(root, "scripts",
                                            "lint_allowlist.txt"))
        findings.extend(lint_rules(model, rel_of, allow))

    # de-duplicate by key + line (one guard can yield N identical sites)
    uniq = {}
    for f in findings:
        uniq.setdefault((f.key, f.line), f)
    findings = sorted(uniq.values(), key=lambda f: (f.rule, f.file, f.line))

    baseline_path = args.baseline
    if baseline_path != "none":
        baseline_path = baseline_path or os.path.join(root, "scripts",
                                                      "analyze",
                                                      "baseline.txt")
    else:
        baseline_path = None

    if args.update_baseline:
        if not baseline_path:
            print("aru-analyze: --update-baseline needs a baseline path",
                  file=sys.stderr)
            return 2
        with open(baseline_path, "w", encoding="utf-8") as f:
            f.write("# aru-analyze baseline: reviewed residual findings.\n"
                    "# One per line: <rule> <function> <callee>.\n"
                    "# Regenerate with --update-baseline; every entry must\n"
                    "# be justified in the PR that adds it.\n")
            for k in sorted({x.key for x in findings}):
                f.write(k + "\n")
        print(f"aru-analyze: wrote {len({x.key for x in findings})} "
              f"entries to {rel_of(baseline_path)}")
        return 0

    baseline = load_baseline(baseline_path)
    base_set = set(baseline)
    new = [f for f in findings if f.key not in base_set]
    suppressed = [f for f in findings if f.key in base_set]
    matched = {f.key for f in suppressed}
    ran_rules = {"hot": ("hot-alloc", "hot-block"), "ranks": ("rank-order",),
                 "nothrow": ("nothrow-throw",),
                 "lint": ("raw-payload", "raw-sleep", "telemetry-http",
                          "send-vec")}
    active = {r for rule in rules for r in ran_rules[rule]}
    stale = [k for k in baseline
             if k.split(" ", 1)[0] in active and k not in matched]

    report(new, args.verbose)
    if args.verbose and sanctioned:
        print(f"-- {len(sanctioned)} sanctioned escape edge(s):")
        for caller, callee, reason in sorted(set(sanctioned)):
            print(f"   {caller} -> {callee}: {reason or '(no reason)'}")
    for k in stale:
        print(f"aru-analyze [stale-baseline]: '{k}' no longer fires; "
              f"remove it from the baseline", file=sys.stderr)

    n_esc = len(set(sanctioned))
    print(f"aru-analyze: {len(files)} files, {len(model.funcs)} functions; "
          f"{len(new)} finding(s), {len(suppressed)} baselined, "
          f"{n_esc} sanctioned escape edge(s), {len(stale)} stale "
          f"baseline entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if (new or stale) else 0


if __name__ == "__main__":
    sys.exit(main())

