"""Regenerate the pinned golden-schedule hashes and report digests.

Run only for *intentional* behaviour changes (a scheduling or accounting
bugfix); never to paper over a non-behaviour-preserving optimisation.

    PYTHONPATH=src:. python scripts/update_golden_schedule.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main() -> None:
    from repro.analysis.golden import default_golden_path, regenerate_golden

    golden = regenerate_golden()
    for name, digest in sorted(golden.items()):
        print(f"{name}: {digest['events']} events, trace={digest['trace'][:12]}…")
    path = default_golden_path()
    print(f"wrote {path} and {path.with_name('report_digests.json')}")


if __name__ == "__main__":
    main()
