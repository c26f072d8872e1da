"""The repository benchmark (entry point: ``perfbench/run.py``).

``workloads`` defines what is run, ``stream`` and ``sweep`` measure it,
``calibrate`` brings host times to reference machine speed, ``oracle``
checks every output against the scalar backend, ``layers`` times the
program's layers for the traced run, ``report`` and ``catalog`` name the
metrics, and ``bench`` puts one run together.
"""
