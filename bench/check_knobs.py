#!/usr/bin/env python3
"""Knob audit: `GeneratorOptions` fields and MiniDB setters no program uses.

A generator knob multiplies the configuration space the pivot oracle, the
goldens and the benchmark must cover, so a field stays in
`GeneratorOptions` only when something under src/, bench/ or perfbench/
assigns it (DESIGN §1). Tests do not count as callers: a value only a test
sets is a `constexpr` next to the code that reads it. The one exception is
EVAL_CORPUS below. The same rule holds for MiniDB's `void set_<name>(`
setters: each needs a `set_<name>(` call under those directories outside
src/minidb/database.h, or it is a test-only switch on the engine.

Prints every field that nothing assigns and is not exempt, every exempt
name that is no longer a field, and every setter nothing calls. Exit 0 when
all three lists are empty, 1 otherwise.

Usage: check_knobs.py [REPO_ROOT]   (default: the checkout holding this file)
"""

import os
import re
import sys

# These fields generate tests/golden/eval_corpus.golden, the reference
# output recorded with the evaluator that existed before the evaluator
# rewrite (test_hotpath.cc: "a diff here is an evaluator semantics change").
# Turning them into constants would mean re-recording that file, which
# deletes the reference it exists to keep.
EVAL_CORPUS = {
    "max_predicate_depth",
    "function_probability",
    "cast_probability",
    "case_probability",
    "like_escape_probability",
    "in_list_null_probability",
}

HEADER = os.path.join("src", "pqs", "generator.h")
ENGINE_HEADER = os.path.join("src", "minidb", "database.h")
CALLER_DIRS = ("src", "bench", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
FIELD = re.compile(r"^\s+(?:bool|int|double|float|uint64_t|int64_t)\s+"
                   r"(\w+)\s*=", re.M)
SETTER = re.compile(r"\bvoid\s+(set_\w+)\s*\(")


def option_fields(root):
    """Field names declared in `struct GeneratorOptions`, in order."""
    with open(os.path.join(root, HEADER)) as f:
        text = f.read()
    start = text.index("struct GeneratorOptions {")
    body = text[start:text.index("\n};", start)]
    return FIELD.findall(body)


def engine_setters(root):
    """Names of the `void set_<name>(` members MiniDB's header declares."""
    with open(os.path.join(root, ENGINE_HEADER)) as f:
        return SETTER.findall(f.read())


def caller_sources(root):
    """(path relative to root, contents) of every C++ source under the
    caller directories."""
    for top in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(SOURCE_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    with open(path) as f:
                        yield os.path.relpath(path, root), f.read()


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    fields = option_fields(root)
    sources = list(caller_sources(root))
    texts = [text for _, text in sources]
    failures = []
    for field in fields:
        if field in EVAL_CORPUS:
            continue
        # `x.field = ...` or `x->field = ...`, never `==`.
        assigned = re.compile(r"(?:\.|->)\s*" + field + r"\s*=(?!=)")
        if not any(assigned.search(text) for text in texts):
            failures.append(field + ": no src/, bench/ or perfbench/ "
                            "caller sets it; make it a constexpr")
    for name in sorted(EVAL_CORPUS - set(fields)):
        failures.append(name + ": exempt, but GeneratorOptions has no such "
                        "field; drop it from EVAL_CORPUS")
    setters = engine_setters(root)
    for setter in setters:
        called = re.compile(r"\b" + setter + r"\s*\(")
        if not any(called.search(text) for path, text in sources
                   if path != ENGINE_HEADER):
            failures.append(setter + ": no src/, bench/ or perfbench/ "
                            "caller outside " + ENGINE_HEADER + "; delete it")
    for line in failures:
        print(line)
    print("%d GeneratorOptions field(s), %d exempt, %d MiniDB setter(s), "
          "%d failure(s)" % (len(fields), len(EVAL_CORPUS), len(setters),
                             len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
