"""Build `ovnes-e2e` from this checkout, with or without a crate registry.

The benchmark links the nine library crates, and at HEAD they do not
type-check; the contract of the PR that defined the benchmark let it add files
under `crates/e2e` only. So the benchmark never builds the tree in place: it
copies `crates/{sim,...,dashboard,e2e}` into an overlay under the cargo target
directory, applies `COMPILE_FIXES` to the copies, and builds there.

Dependencies are the published crates whenever cargo can resolve them offline
(a vendored or cached registry). Only when that resolution fails does the
overlay patch crates.io to the stand-ins in `standins/`. Which of the two a
binary was built against is compiled into it (`OVNES_E2E_DEPS`) and written
into every result's fingerprint.

    python3 crates/e2e/overlay.py          build, print the binary's path
    python3 crates/e2e/overlay.py test     run the crate's tests in the overlay
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Crates the benchmark links. `crates/bench` is left out on purpose: the
# benchmark must not depend on it, and it is not built.
LIBRARY_CRATES = ["sim", "model", "api", "ran", "transport", "cloud", "forecast", "core", "dashboard"]
STANDINS = ["serde", "serde_json", "rand", "rand_chacha", "crossbeam", "parking_lot", "bytes", "proptest", "criterion"]

# The smallest type-level fix per compiler error at HEAD; no behaviour changes.
# Each is (file, the error it cures, text at HEAD, text that compiles).
COMPILE_FIXES = [
    (
        "crates/ran/src/rpc.rs",
        "E0308: `RanController::from_state` takes `RanControllerState` by value, `serve_resumed` passes a reference",
        "command_router_incarnation(RanController::from_state(state), term),",
        "command_router_incarnation(RanController::from_state(state.clone()), term),",
    ),
    (
        "crates/core/src/orchestrator.rs",
        "E0308: the same function, called with `&state.ran` by `Orchestrator::from_state`",
        "ran: RanController::from_state(&state.ran),",
        "ran: RanController::from_state(state.ran.clone()),",
    ),
    (
        "crates/transport/src/controller.rs",
        "E0282: `usage` is collected before anything fixes its type and `usage.len()` is read first",
        "        let usage = topo\n            .links()",
        "        let usage: Vec<LinkUsage> = topo\n            .links()",
    ),
]


def target_dir():
    """The cargo target directory, absolute: the overlay runs cargo elsewhere."""
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def _write_if_changed(path, data):
    """Keep mtimes of unchanged files, so cargo rebuilds only what changed."""
    try:
        with open(path, "rb") as f:
            if f.read() == data:
                return
    except FileNotFoundError:
        pass
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)


def _fixed(rel, data):
    """`data` of file `rel` with its compile fixes applied.

    A fix is done with once its replacement is in the source (the tree was
    repaired in place). Anything else is said aloud: the benchmark of a later
    commit must still build, so a fix that no longer matches is not an error
    here, and the compiler decides whether the rewritten source needed it.
    """
    for file, error, old, new in COMPILE_FIXES:
        if file != rel:
            continue
        old, new = old.encode(), new.encode()
        if data.count(old) == 1:
            data = data.replace(old, new)
        elif new in data:
            print(f"overlay: {rel} is repaired in the tree, fix retired: {error}", file=sys.stderr)
        else:
            print(f"overlay: fix for {rel} matches {data.count(old)} times, not applied: {error}", file=sys.stderr)
    return data


def _sync_tree(crate, overlay):
    """Mirror `crates/<crate>` into the overlay and drop files that left it."""
    src, dst = os.path.join(ROOT, "crates", crate), os.path.join(overlay, "crates", crate)
    wanted = set()
    for base, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d not in ("target", "__pycache__", ".bench_build")]
        for name in files:
            path = os.path.join(base, name)
            wanted.add(os.path.relpath(path, src))
            with open(path, "rb") as f:
                data = _fixed(os.path.relpath(path, ROOT), f.read())
            _write_if_changed(os.path.join(dst, os.path.relpath(path, src)), data)
    for base, _dirs, files in os.walk(dst):
        for name in files:
            path = os.path.join(base, name)
            if os.path.relpath(path, dst) not in wanted:
                os.remove(path)


def _manifest(standins):
    """The workspace manifest with one member and, if asked, the stand-ins.

    Profiles and `[workspace.dependencies]` are kept as they are, so the
    overlay is built with the repository's own build settings.
    """
    with open(os.path.join(ROOT, "Cargo.toml")) as f:
        manifest = f.read()
    members = 'members = ["crates/*"]'
    if manifest.count(members) != 1:
        sys.exit("overlay: the workspace manifest no longer lists members as crates/*")
    manifest = manifest.replace(members, 'members = ["crates/e2e"]')
    if standins:
        manifest += "\n[patch.crates-io]\n"
        for name in STANDINS:
            manifest += f'{name} = {{ path = "crates/e2e/standins/{name}" }}\n'
    return manifest.encode()


def prepare():
    """Lay the overlay out; return its directory and the environment to run cargo in."""
    for crate in LIBRARY_CRATES:
        if not os.path.isdir(os.path.join(ROOT, "crates", crate, "src")):
            sys.exit(f"overlay: crates/{crate}/src is missing: the benchmark needs the workspace it measures")
    target = target_dir()
    overlay = os.path.join(target, "overlay")
    for crate in LIBRARY_CRATES + ["e2e"]:
        _sync_tree(crate, overlay)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(overlay, "Cargo.toml")
    # The published crates first. `cargo metadata` resolves and compiles
    # nothing, so it fails exactly when the dependencies cannot be had.
    _write_if_changed(manifest, _manifest(standins=False))
    resolve = ["cargo", "metadata", "--offline", "--format-version", "1"]
    resolved = subprocess.run(resolve, cwd=overlay, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if resolved.returncode == 0:
        env["OVNES_E2E_DEPS"] = "crates.io"
    else:
        _write_if_changed(manifest, _manifest(standins=True))
        env["OVNES_E2E_DEPS"] = "standins"
    return overlay, env


def _cargo(args, overlay, env):
    cmd = ["cargo"] + args
    done = subprocess.run(cmd, cwd=overlay, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"overlay: {' '.join(cmd)} failed in {overlay} (dependencies: {env['OVNES_E2E_DEPS']})")


def build():
    """Build the overlay and return the path of the `ovnes-e2e` binary."""
    overlay, env = prepare()
    _cargo(["build", "--release", "--offline", "--quiet", "-p", "ovnes-e2e"], overlay, env)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "ovnes-e2e")


def test():
    """`cargo test -p ovnes-e2e`, and the JSON stand-in's own tests when it is in use."""
    overlay, env = prepare()
    packages = ["-p", "ovnes-e2e"]
    if env["OVNES_E2E_DEPS"] == "standins":
        packages += ["-p", "serde_json", "-p", "rand_chacha"]
    _cargo(["test", "--release", "--offline"] + packages, overlay, env)


if __name__ == "__main__":
    if sys.argv[1:] == ["test"]:
        test()
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        print(build())
