import subprocess
import sys
from pathlib import Path

import fuelspatial


def test_package_import_skips_scipy_stats():
    # scipy.stats costs most of a cold package import; nothing in the
    # package needs it.
    src = str(Path(fuelspatial.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fuelspatial; "
            "print('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
