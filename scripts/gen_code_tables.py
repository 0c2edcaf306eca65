"""Re-export of the BCH matrix constructions in ``masscodec.gf2m``.

The package builds every named parity-check table in process
(``masscodec.gf2m.TABLES``), so this script writes nothing.  It remains
only because ``bench/workloads.py`` loads it by path for
``alpha_power_pcm``; a change to the benchmark can load ``masscodec.gf2m``
instead and delete this file.
"""

from masscodec.gf2m import alpha_power_pcm  # noqa: F401
