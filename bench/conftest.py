import sys
from pathlib import Path

# The benchmark runs the program from this checkout's source tree.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
