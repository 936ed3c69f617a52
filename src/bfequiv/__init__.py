"""Bayes-factor tests calibrated against classical critical regions.

The library computes Bayes factors for a catalogue of standard testing
problems, calibrates the Bayes threshold lambda to a classical critical
value gamma (and back), and verifies that the two decision rules agree
dataset by dataset, so their power functions coincide exactly.
"""

__version__ = "0.1.0"
