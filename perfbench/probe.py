"""Set-up probe: time `import flydrive` plus parsing one workload's inputs.

Run in a fresh interpreter with the package's source on PYTHONPATH:

    python3 perfbench/probe.py MANIFEST.json
    python3 perfbench/probe.py --reference

The manifest lists scenario references (bundled names or files) and terrain
JSON files.  The first form prints the seconds from the first line of this
script until the inputs are parsed with the program's own loaders.  The
second prints the seconds to import a fixed set of standard-library modules,
a cold import that no change to the program can move; the benchmark times it
next to every set-up to tell the host's speed at that moment.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

# Pure-Python and C-extension modules alike, as numpy and flydrive are.
REFERENCE_MODULES = (
    "argparse", "csv", "decimal", "difflib", "email.mime.multipart", "fractions",
    "http.client", "pickle", "sqlite3", "ssl", "tarfile", "unittest",
    "xml.etree.ElementTree", "zipfile",
)


def reference() -> None:
    for name in REFERENCE_MODULES:
        __import__(name)
    print(repr(time.perf_counter() - START))


def main(manifest_path: str) -> None:
    import json

    import flydrive
    from flydrive import cli
    from flydrive.terrain import terrain_from_dict

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    bundled = cli.bundled_scenarios()
    for ref in manifest["scenarios"]:
        flydrive.load_scenario(bundled.get(ref, ref))
    for path in manifest["terrains"]:
        with open(path, encoding="utf-8") as fh:
            terrain_from_dict(json.load(fh), source=path)
    flydrive.default_power_model()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    if sys.argv[1] == "--reference":
        reference()
    else:
        main(sys.argv[1])
