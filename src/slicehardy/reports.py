"""Lightweight tabular reports with CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field


@dataclass
class Report:
    """A table of check results plus a summary mapping (the CLI names its
    CSV after the check)."""

    columns: list
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append(tuple(row))

    def column(self, name):
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.columns)
            w.writerows(self.rows)

    def __repr__(self):
        return f"Report({self.columns}, {len(self.rows)} rows, {self.summary})"
