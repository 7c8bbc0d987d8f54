#!/usr/bin/env python3
"""prodsyn snapshot inspector.

Dumps the structure of an offline-learning snapshot file
(docs/PERSISTENCE.md, src/snapshot/format.h): header fields, the section
table with per-section checksums, and a validity verdict obtained by
re-deriving every CRC with zlib.crc32 — an independent implementation of
the C++ writer's IEEE CRC-32, so agreement is a real cross-check.

Usage:
    tools/snapshot_inspect.py <file.snap> [--json]

Exit codes:
    0  the file is a structurally valid snapshot, every checksum matches
    1  usage error / file unreadable
    2  malformed or corrupt snapshot (any structural or checksum failure)
"""

import json
import struct
import sys
import zlib

MAGIC = b"PSYNSNAP"
FORMAT_VERSION = 2
ENDIAN_TAG = 0x01020304
FOOTER_MAGIC = 0x50414E53  # "SNAP" little-endian
HEADER_SIZE = 32
SECTION_ENTRY_SIZE = 24
FOOTER_SIZE = 8

# The sections FORMAT_VERSION defines, in the order the file must hold
# them.
KNOWN_SECTIONS = {
    "LRMW": "LR weights + feature scaler (f64 bit patterns)",
    "CORR": "scored attribute correspondences",
    "NBCL": "title classifier naive-Bayes state",
}


class Malformed(Exception):
    """Any structural or checksum violation."""


def fourcc_name(value):
    raw = struct.pack("<I", value)
    if all(0x20 <= b <= 0x7E for b in raw):
        return raw.decode("ascii")
    return "0x%08X" % value


def inspect(data):
    """Parses and verifies `data`; returns the report dict.

    Raises Malformed on the first violation; the report built so far is
    attached as the exception's first argument when partially available.
    """
    report = {"file_size": len(data), "valid": False}
    if len(data) < HEADER_SIZE + FOOTER_SIZE:
        raise Malformed(
            "file too small to hold header + footer "
            "(%d bytes)" % len(data), report)
    if data[:8] != MAGIC:
        raise Malformed("bad magic %r" % data[:8], report)
    version, endian_tag, file_size, section_count, header_crc = \
        struct.unpack_from("<IIQII", data, 8)
    report["header"] = {
        "magic": MAGIC.decode("ascii"),
        "format_version": version,
        "endian_tag": "0x%08X" % endian_tag,
        "recorded_file_size": file_size,
        "section_count": section_count,
        "header_crc": "0x%08X" % header_crc,
    }
    actual_header_crc = zlib.crc32(data[:HEADER_SIZE - 4])
    report["header"]["header_crc_computed"] = "0x%08X" % actual_header_crc
    if version != FORMAT_VERSION:
        raise Malformed("unsupported format version %d" % version, report)
    if endian_tag != ENDIAN_TAG:
        raise Malformed(
            "endian tag mismatch (big-endian writer?)", report)
    if file_size != len(data):
        raise Malformed(
            "recorded size %d != actual %d" % (file_size, len(data)),
            report)
    if actual_header_crc != header_crc:
        raise Malformed("header CRC mismatch", report)

    table_end = HEADER_SIZE + section_count * SECTION_ENTRY_SIZE
    if table_end + FOOTER_SIZE > len(data):
        raise Malformed(
            "section table overruns the file "
            "(%d sections)" % section_count, report)

    file_crc, footer_magic = struct.unpack_from("<II", data, len(data) - 8)
    report["footer"] = {
        "file_crc": "0x%08X" % file_crc,
        "file_crc_computed": "0x%08X" % zlib.crc32(data[:-8]),
        "footer_magic": "0x%08X" % footer_magic,
    }
    if footer_magic != FOOTER_MAGIC:
        raise Malformed("bad footer magic", report)
    if zlib.crc32(data[:-8]) != file_crc:
        raise Malformed("whole-file CRC mismatch", report)

    sections = []
    expected_offset = table_end
    for i in range(section_count):
        sid, payload_crc, offset, length = struct.unpack_from(
            "<IIQQ", data, HEADER_SIZE + i * SECTION_ENTRY_SIZE)
        name = fourcc_name(sid)
        entry = {
            "id": name,
            "description": KNOWN_SECTIONS.get(name, "(unknown)"),
            "offset": offset,
            "length": length,
            "payload_crc": "0x%08X" % payload_crc,
        }
        sections.append(entry)
        if offset != expected_offset:
            raise Malformed(
                "section %s at offset %d, expected %d (sections must "
                "tile the payload region)" % (name, offset,
                                              expected_offset), report)
        if offset + length > len(data) - FOOTER_SIZE:
            raise Malformed(
                "section %s overruns the payload region" % name, report)
        computed = zlib.crc32(data[offset:offset + length])
        entry["payload_crc_computed"] = "0x%08X" % computed
        if computed != payload_crc:
            raise Malformed("section %s payload CRC mismatch" % name,
                            report)
        expected_offset = offset + length
    report["sections"] = sections
    if expected_offset != len(data) - FOOTER_SIZE:
        raise Malformed(
            "payload region not fully covered by sections", report)
    ids = [entry["id"] for entry in sections]
    if ids != list(KNOWN_SECTIONS):
        raise Malformed(
            "sections %s, format version %d defines %s" %
            (ids, FORMAT_VERSION, list(KNOWN_SECTIONS)), report)
    report["valid"] = True
    return report


def print_text(report, verdict):
    print("snapshot: %d bytes" % report.get("file_size", 0))
    header = report.get("header")
    if header:
        print("  header: version %d, endian %s, recorded size %d, "
              "%d sections" % (header["format_version"],
                               header["endian_tag"],
                               header["recorded_file_size"],
                               header["section_count"]))
        print("    header_crc %s (computed %s)" %
              (header["header_crc"],
               header.get("header_crc_computed", "?")))
    for entry in report.get("sections", []):
        print("  %s  offset %10d  length %10d  crc %s (computed %s)  %s" %
              (entry["id"], entry["offset"], entry["length"],
               entry["payload_crc"],
               entry.get("payload_crc_computed", "?"),
               entry["description"]))
    footer = report.get("footer")
    if footer:
        print("  footer: file_crc %s (computed %s), magic %s" %
              (footer["file_crc"], footer["file_crc_computed"],
               footer["footer_magic"]))
    print("verdict: %s" % verdict)


def main(argv):
    args = [a for a in argv[1:] if a != "--json"]
    as_json = "--json" in argv[1:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        with open(args[0], "rb") as f:
            data = f.read()
    except OSError as err:
        print("snapshot_inspect: cannot read %s: %s" % (args[0], err),
              file=sys.stderr)
        return 1
    try:
        report = inspect(data)
        verdict = "VALID"
        code = 0
    except Malformed as err:
        report = err.args[1] if len(err.args) > 1 else {}
        report["error"] = err.args[0]
        verdict = "MALFORMED: %s" % err.args[0]
        code = 2
    if as_json:
        report["verdict"] = verdict
        print(json.dumps(report, indent=2))
    else:
        print_text(report, verdict)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
