"""The README's Python examples run as written, so they fail here when
the API drifts from them."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_python_blocks_run_in_order_in_one_namespace(capsys):
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the quick start and the first_links example
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    # what the comments in the blocks say
    g, v = namespace["g"], namespace["v"]
    assert (g.n_vertices, g.n_edges) == (700, 2100)
    assert capsys.readouterr().out.startswith("0\n")  # skipped_edges
    assert namespace["degrees"] == np.bincount(v, minlength=g.n_vertices).tolist()
