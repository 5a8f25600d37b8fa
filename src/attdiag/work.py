"""The work ledger: `COUNTS`, one process-wide count of the work each layer
does, under names that mean one thing wherever they appear (README lists
them). A forked bootstrap worker returns what it added and the caller adds
that here. Stage log lines carry it; `report.json` never does.
"""

from collections import Counter

COUNTS = Counter()
