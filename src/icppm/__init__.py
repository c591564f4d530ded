"""Inter-case predictive process monitoring with quantum kernel methods.

Event logs are parsed into prefix samples (``icppm.eventlog``), encoded
with intra-case features (``icppm.encoding``) and sliding-window inter-case
features (``icppm.intercase``), and classified with kernel SVMs
(``icppm.svm`` over the classical or quantum-overlap kernels of
``icppm.qkernel``, simulated by ``icppm.qsim``) or a variational circuit
(``icppm.vqc``). ``icppm.bench`` runs the cross-validated experiments and
``icppm.cli`` is the command line. The package re-exports nothing: import
each name from the submodule that owns it. See the README for the
experiment protocol.
"""
