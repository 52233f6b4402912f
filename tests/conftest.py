import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the helper modules of this directory and of tools/ (the hard-input
# corpus), and this checkout's own package ahead of any installed copy
sys.path.insert(0, str(HERE.parent / "tools"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
