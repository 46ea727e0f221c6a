#!/usr/bin/env python3
"""Knob audit: `GeneratorOptions` fields that no program sets.

A generator knob multiplies the configuration space the pivot oracle, the
goldens and the benchmark must cover, so a field stays in
`GeneratorOptions` only when something under src/, bench/ or perfbench/
assigns it (DESIGN §1). Tests do not count as callers: a value only a test
sets is a `constexpr` next to the code that reads it. The one exception is
EVAL_CORPUS below.

Prints every field that nothing assigns and is not exempt, and every exempt
name that is no longer a field. Exit 0 when both lists are empty, 1
otherwise.

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
CALLER_DIRS = ("src", "bench", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
FIELD = re.compile(r"^\s+(?:bool|int|double|float|uint64_t|int64_t)\s+"
                   r"(\w+)\s*=", re.M)


def option_fields(root):
    """Field names declared in `struct GeneratorOptions`, in order."""
    with open(os.path.join(root, HEADER)) as f:
        text = f.read()
    start = text.index("struct GeneratorOptions {")
    body = text[start:text.index("\n};", start)]
    return FIELD.findall(body)


def caller_sources(root):
    """Contents of every C++ source under the caller directories."""
    for top in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(SOURCE_SUFFIXES):
                    with open(os.path.join(dirpath, name)) as f:
                        yield f.read()


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    fields = option_fields(root)
    sources = list(caller_sources(root))
    failures = []
    for field in fields:
        if field in EVAL_CORPUS:
            continue
        # `x.field = ...` or `x->field = ...`, never `==`.
        assigned = re.compile(r"(?:\.|->)\s*" + field + r"\s*=(?!=)")
        if not any(assigned.search(text) for text in sources):
            failures.append(field + ": no src/, bench/ or perfbench/ "
                            "caller sets it; make it a constexpr")
    for name in sorted(EVAL_CORPUS - set(fields)):
        failures.append(name + ": exempt, but GeneratorOptions has no such "
                        "field; drop it from EVAL_CORPUS")
    for line in failures:
        print(line)
    print("%d GeneratorOptions field(s), %d exempt, %d failure(s)"
          % (len(fields), len(EVAL_CORPUS), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
