#!/usr/bin/env python3
"""Find library functions that only tests reach.

A library `pub fn` must be named by some non-test target outside its own
crate: a workspace lib, bin, example or bench, or perfbench's bins. This
scan checks that by definition, not by name:

 1. Copy the tree to a temporary directory (the checkout is never edited).
 2. Make every library `pub fn` (`crates/*/src` except bin sources, plus
    `src/lib.rs`) `pub(crate)`.
 3. `cargo check --keep-going` the workspace's lib, bins, examples and
    benches, and perfbench's bins.
 4. Put `pub` back at each definition that an error points to. An E0364
    re-export error puts `pub` back on the re-exported function.
 5. Repeat 3-4 until nothing changes.
 6. `cargo check --workspace --lib`: each `dead_code` warning names an item
    that only tests (unit, integration or doc) reach.
 7. Fail on any such item not listed in `ci/api-allowlist.txt`, and on any
    allowlist entry that no longer draws a warning.

Known gap: a free function that a `pub use` re-exports counts as used,
because the re-export alone restores it (for example `evaluate_point` and
`read_jsonl`). Trait impls and public fields are out of scope too.

Run it as `python3 ci/api-scan.py`; it exits 1 on a finding. The copy and,
unless `CARGO_TARGET_DIR` is set, the build go to `lva-api-scan/` under the
system temporary directory (`TMPDIR`), at a fixed path so that a rerun
builds warm.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "ci" / "api-allowlist.txt"

PUB_FN = re.compile(r"^(\s*)pub ((?:const |unsafe |async )*fn )")
CRATE_FN = re.compile(r"^(\s*)pub\(crate\) ((?:const |unsafe |async )*fn )")
# The item that encloses a definition: an impl block's self type, or a
# struct, enum, trait or module name.
IMPL = re.compile(r"^(\s*)impl(?:<.*?>)?\s+(?:[\w:<>, ']+\s+for\s+)?([\w:]+)")
ITEM = re.compile(r"^(\s*)(?:pub(?:\([\w:]+\))?\s+)?(?:struct|enum|trait|mod)\s+(\w+)")

CHECKS = [
    ["--workspace", "--lib", "--bins", "--examples", "--benches"],
    ["--manifest-path", "perfbench/Cargo.toml", "--bins"],
]


def library_sources(tree):
    files = [tree / "src" / "lib.rs"]
    for src in sorted((tree / "crates").glob("*/src")):
        for path in sorted(src.rglob("*.rs")):
            rel = path.relative_to(src)
            if rel.parts[0] == "bin" or rel == Path("main.rs"):
                continue
            files.append(path)
    return files


def copy_tree(work):
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(
        ROOT, tree, symlinks=True, ignore=shutil.ignore_patterns(".git", "target")
    )
    return tree.resolve()


def demote(tree):
    """Turns every library `pub fn` into `pub(crate)`; returns their lines."""
    demoted = {}
    for path in library_sources(tree):
        lines = path.read_text().split("\n")
        for i, line in enumerate(lines):
            if PUB_FN.match(line):
                lines[i] = PUB_FN.sub(r"\1pub(crate) \2", line, count=1)
                demoted.setdefault(path, set()).add(i + 1)
        path.write_text("\n".join(lines))
    return demoted


def cargo(tree, target, args):
    """The compiler messages of one `cargo check`; exits if it failed
    without any."""
    cmd = ["cargo", "check", "--locked", "--keep-going", "--message-format=json"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    run = subprocess.run(cmd + args, cwd=tree, env=env, capture_output=True, text=True)
    messages = []
    for line in run.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-message":
            messages.append(msg["message"])
    if run.returncode != 0 and not any(m["level"] == "error" for m in messages):
        sys.exit(f"cargo check {' '.join(args)} failed:\n{run.stderr}")
    return messages


def definition_spans(message):
    """The spans an error points to besides the offending use itself."""
    yield from (span for span in message["spans"] if not span["is_primary"])
    for child in message["children"]:
        yield from child["spans"]


def resolve(tree, span):
    path = Path(span["file_name"])
    if not path.is_absolute():
        path = tree / path
    return path.resolve(), span["line_start"]


def reexported_fn(tree, span, demoted):
    """The definition an E0364 `pub use` error names, if this scan demoted it."""
    path, _ = resolve(tree, span)
    data = path.read_bytes()
    name = re.match(rb"\w+", data[span["byte_start"] :]).group().decode()
    # `pub use a::b::{c, d}`: the module path is what precedes the brace.
    use = data.rindex(b"use ", 0, span["byte_start"]) + 4
    stmt = data[use : span["byte_start"]].decode()
    module = [seg for seg in stmt.split("{")[0].split("::") if seg.strip()]
    crate_src = path.parent
    while crate_src.name != "src":
        crate_src = crate_src.parent
    homes = {crate_src.joinpath(*module).with_suffix(".rs"),
             crate_src.joinpath(*module, "mod.rs")}
    pattern = re.compile(r"^\s*pub\(crate\) (?:const |unsafe |async )*fn " + name + r"\b")
    for file in homes & set(demoted):
        src = file.read_text().split("\n")
        for n in demoted[file]:
            if pattern.match(src[n - 1]):
                return file, n
    return None


def restore(tree, target, demoted):
    """One round of steps 3-4: the number of definitions made `pub` again,
    and the rendered errors that pointed at none."""
    wanted, unresolved = set(), []
    for args in CHECKS:
        for msg in cargo(tree, target, args):
            if msg["level"] != "error" or not msg["spans"]:
                continue
            sites = {resolve(tree, span) for span in definition_spans(msg)}
            found = {site for site in sites if site[1] in demoted.get(site[0], ())}
            if (msg.get("code") or {}).get("code") == "E0364":
                found.update(filter(None, [reexported_fn(tree, msg["spans"][0], demoted)]))
            if not found:
                unresolved.append(msg["rendered"])
            wanted |= found
    for path, line in wanted:
        lines = path.read_text().split("\n")
        lines[line - 1] = CRATE_FN.sub(r"\1pub \2", lines[line - 1], count=1)
        path.write_text("\n".join(lines))
        demoted[path].discard(line)
    return len(wanted), unresolved


def qualified_name(path, line, ident):
    """`Type::ident` for an item inside an impl, struct, enum or trait."""
    lines = path.read_text().split("\n")
    indent = len(lines[line - 1]) - len(lines[line - 1].lstrip())
    for text in reversed(lines[: line - 1]):
        m = IMPL.match(text) or ITEM.match(text)
        if m and len(m.group(1)) < indent:
            return m.group(2).split("::")[-1] + "::" + ident
    return ident


def dead_items(tree, target):
    """Step 6: `Type::function` -> `file:line` for each dead item."""
    found = {}
    for msg in cargo(tree, target, ["--workspace", "--lib"]):
        if (msg.get("code") or {}).get("code") != "dead_code":
            continue
        for span in msg["spans"]:
            if not span["is_primary"]:
                continue
            path, line = resolve(tree, span)
            ident = path.read_bytes()[span["byte_start"] : span["byte_end"]].decode()
            name = qualified_name(path, line, ident)
            found[name] = f"{path.relative_to(tree)}:{line}"
    return found


def read_allowlist():
    allowed = {}
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            sys.exit(f"{ALLOWLIST}: `{name}` needs a reason")
        allowed[name] = reason.strip()
    return allowed


def main():
    started = time.monotonic()
    work = Path(tempfile.gettempdir()) / "lva-api-scan"
    work.mkdir(exist_ok=True)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or work / "target")
    tree = copy_tree(work)
    demoted = demote(tree)
    print(f"demoted {sum(map(len, demoted.values()))} library `pub fn` to pub(crate)")
    rounds = 0
    while True:
        rounds += 1
        restored, unresolved = restore(tree, target, demoted)
        print(f"round {rounds}: {restored} put back to pub")
        if restored == 0:
            break
    if unresolved:
        print("".join(dict.fromkeys(unresolved)))
        print("the copy does not build, and no error above names a demoted `pub fn`")
        return 1
    still = sum(map(len, demoted.values()))
    dead = dead_items(tree, target)
    allowed = read_allowlist()
    print(
        f"fixed point after {rounds} rounds, {time.monotonic() - started:.0f} s: "
        f"{still} stay pub(crate), {len(dead)} only tests reach"
    )
    failed = False
    for name, site in sorted(dead.items()):
        if name in allowed:
            print(f"  allowed  {name} ({site}): {allowed[name]}")
        else:
            print(f"  UNUSED   {name} ({site}): only tests reach it")
            failed = True
    for name in sorted(set(allowed) - set(dead)):
        print(f"  STALE    {name}: in {ALLOWLIST.name}, but non-test code reaches it or it is gone")
        failed = True
    if failed:
        print("delete each UNUSED function (tests use the API that stays), or list it "
              f"with a reason in ci/{ALLOWLIST.name}; drop each STALE entry")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
