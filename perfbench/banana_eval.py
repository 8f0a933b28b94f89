"""External banana evaluator speaking medsampler's JSON-lines protocol.

Stands in for a simulator: each request sleeps a fixed 5 ms, then returns the
banana log-density computed from the original-scale point ``x_orig`` with the
same float64 arithmetic as ``medsampler.make_banana``.

    request:  {"id": k, "x": [...], "x_orig": [...]}
    reply:    {"id": k, "logf": value}
"""

import json
import sys
import time

import numpy as np

SLEEP_S = 0.005


def logf(x: np.ndarray) -> float:
    x1, x2 = x[0], x[1]
    return float(-0.5 * x1**2 / 100.0 - 0.5 * (x2 + 0.03 * x1**2 - 3.0) ** 2)


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        time.sleep(SLEEP_S)
        value = logf(np.array(request["x_orig"], dtype=float))
        sys.stdout.write(json.dumps({"id": request["id"], "logf": value}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
