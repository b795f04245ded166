"""Time the codec's lazy set-up in a fresh interpreter.

Prints one JSON line with the seconds spent importing ``dnagolay``,
loading the default codebook and making the first ``candidate_images``
call. Run by ``run.py``, once per set-up sample.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import dnagolay  # noqa: E402

t1 = time.perf_counter()
book = dnagolay.load_default_codebook()
t2 = time.perf_counter()
dnagolay.mldecode.candidate_images(book)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "candidate_images_s": t3 - t2}))
