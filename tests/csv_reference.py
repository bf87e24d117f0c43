"""The row-by-row case CSV writer and reader that the vectorized data path
replaced, frozen.

``write_data_csv`` is the library's former ``data.csv`` writer: one
``csv.writer`` row per sample, the timestamp as an int and every value as
its ``repr``.  ``read_data_csv`` is the former reader: ``csv.reader`` rows
and one ``float()`` per value.  ``rcakit.model.save_case`` must write the
same bytes and ``rcakit.model.load_case`` must read the same values.
"""

import csv

import numpy as np


def write_data_csv(path, case) -> None:
    """Write ``case``'s data.csv the row-by-row way."""
    start, interval = case.start_time, case.interval
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *case.metrics])
        for i, row in enumerate(case.values.tolist()):
            writer.writerow([start + i * interval, *map(repr, row)])


def read_data_csv(path) -> tuple[list[str], list[int], np.ndarray]:
    """Metric names, timestamps and the (T, n) values, in file column order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    timestamps = [int(row[0]) for row in rows]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    return header[1:], timestamps, values.reshape(len(rows), len(header) - 1)
