#!/usr/bin/env python3
"""Write the committed parser golden file from hand-authored expectations.

Every expected flag and coordinate below was derived by hand from the
grammar definition, not by running the parser; the golden file is the
contract the parser is tested against.

    python scripts/make_parser_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "parser_golden.jsonl"


def case(name, fmt, text, template_ok, content_ok, predictions, space="pixels",
         width=640, height=480):
    return {
        "name": name,
        "format": fmt,
        "space": space,
        "width": width,
        "height": height,
        "text": text,
        "template_ok": template_ok,
        "content_ok": content_ok,
        "predictions": [
            {"label": label, "coords": coords, "box_valid": valid}
            for label, coords, valid in predictions
        ],
    }


STRUCTURED = [
    case("s_single", "structured", '[{"bbox_2d": [10, 20, 110, 220], "label": "cat"}]',
         True, True, [("cat", [10.0, 20.0, 110.0, 220.0], True)]),
    case("s_two_objects", "structured",
         '[{"bbox_2d": [0, 0, 50, 60], "label": "person"}, '
         '{"bbox_2d": [100, 100, 200, 200], "label": "dog"}]',
         True, True,
         [("person", [0.0, 0.0, 50.0, 60.0], True),
          ("dog", [100.0, 100.0, 200.0, 200.0], True)]),
    case("s_float_coords", "structured",
         '[{"bbox_2d": [10.5, 20.25, 110.75, 220.125], "label": "cat"}]',
         True, True, [("cat", [10.5, 20.25, 110.75, 220.125], True)]),
    case("s_fenced_lang", "structured",
         '```json\n[{"bbox_2d": [1, 2, 3, 4], "label": "cat"}]\n```',
         True, True, [("cat", [1.0, 2.0, 3.0, 4.0], True)]),
    case("s_fenced_bare", "structured",
         '```\n[{"bbox_2d": [1, 2, 3, 4], "label": "cat"}]\n```',
         True, True, [("cat", [1.0, 2.0, 3.0, 4.0], True)]),
    case("s_empty_array", "structured", "[]", True, True, []),
    case("s_surrounding_ws", "structured",
         '  [{"bbox_2d": [5, 5, 15, 15], "label": "bench"}]  \n',
         True, True, [("bench", [5.0, 5.0, 15.0, 15.0], True)]),
    case("s_extra_keys", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": "cat", "confidence": 0.9}]',
         True, True, [("cat", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_label_case_kept", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": "Traffic Light"}]',
         True, True, [("Traffic Light", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_label_ws_collapsed", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": "traffic   light"}]',
         True, True, [("traffic light", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_oob_x", "structured", '[{"bbox_2d": [0, 0, 700, 100], "label": "cat"}]',
         True, False, [("cat", [0.0, 0.0, 700.0, 100.0], False)]),
    case("s_oob_y", "structured", '[{"bbox_2d": [10, 20, 110, 900], "label": "cat"}]',
         True, False, [("cat", [10.0, 20.0, 110.0, 900.0], False)]),
    case("s_swapped_corners", "structured",
         '[{"bbox_2d": [110, 20, 10, 220], "label": "cat"}]',
         True, False, [("cat", [110.0, 20.0, 10.0, 220.0], False)]),
    case("s_zero_width", "structured", '[{"bbox_2d": [10, 20, 10, 220], "label": "cat"}]',
         True, False, [("cat", [10.0, 20.0, 10.0, 220.0], False)]),
    case("s_negative", "structured", '[{"bbox_2d": [-5, 0, 10, 10], "label": "cat"}]',
         True, False, [("cat", [-5.0, 0.0, 10.0, 10.0], False)]),
    case("s_mixed_validity", "structured",
         '[{"bbox_2d": [0, 0, 50, 50], "label": "cat"}, '
         '{"bbox_2d": [0, 0, 700, 50], "label": "dog"}, '
         '{"bbox_2d": [5, 5, 25, 25], "label": "person"}]',
         True, False,
         [("cat", [0.0, 0.0, 50.0, 50.0], True),
          ("dog", [0.0, 0.0, 700.0, 50.0], False),
          ("person", [5.0, 5.0, 25.0, 25.0], True)]),
    case("s_missing_label", "structured", '[{"bbox_2d": [1, 1, 9, 9]}]', True, False, []),
    case("s_missing_bbox", "structured", '[{"label": "cat"}]', True, False, []),
    case("s_bbox_three", "structured", '[{"bbox_2d": [1, 2, 3], "label": "cat"}]',
         True, False, []),
    case("s_bbox_five", "structured", '[{"bbox_2d": [1, 2, 3, 4, 5], "label": "cat"}]',
         True, False, []),
    case("s_bbox_string_element", "structured",
         '[{"bbox_2d": ["1", 2, 3, 4], "label": "cat"}]', True, False, []),
    case("s_bbox_bool_element", "structured",
         '[{"bbox_2d": [true, 2, 3, 4], "label": "cat"}]', True, False, []),
    case("s_label_empty", "structured", '[{"bbox_2d": [1, 2, 3, 4], "label": ""}]',
         True, False, []),
    case("s_label_blank", "structured", '[{"bbox_2d": [1, 2, 3, 4], "label": "   "}]',
         True, False, []),
    case("s_label_number", "structured", '[{"bbox_2d": [1, 2, 3, 4], "label": 7}]',
         True, False, []),
    case("s_lenient_retention", "structured",
         '[{"bbox_2d": [1, 2, 3], "label": "cat"}, '
         '{"bbox_2d": [10, 10, 20, 20], "label": "dog"}]',
         True, False, [("dog", [10.0, 10.0, 20.0, 20.0], True)]),
    case("s_nonobject_element", "structured",
         '[{"bbox_2d": [1, 2, 3, 4], "label": "cat"}, 42]', False, False, []),
    case("s_toplevel_object", "structured", '{"bbox_2d": [1, 2, 3, 4], "label": "cat"}',
         False, False, []),
    case("s_truncated", "structured", '[{"bbox_2d": [10, 20, 110', False, False, []),
    case("s_prose_only", "structured", "I cannot find any objects.", False, False, []),
    case("s_unterminated_fence", "structured",
         '```json\n[{"bbox_2d": [1, 2, 3, 4], "label": "cat"}]', False, False, []),
    case("s_empty_text", "structured", "", False, False, []),
    case("s_ws_only", "structured", "   ", False, False, []),
    case("s_duplicates_kept", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": "cat"}, '
         '{"bbox_2d": [1, 1, 9, 9], "label": "cat"}]',
         True, True,
         [("cat", [1.0, 1.0, 9.0, 9.0], True), ("cat", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_scientific_notation", "structured",
         '[{"bbox_2d": [1e1, 2e1, 1.1e2, 2.2e2], "label": "cat"}]',
         True, True, [("cat", [10.0, 20.0, 110.0, 220.0], True)]),
    case("s_unicode_label", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": "café au lait"}]',
         True, True, [("café au lait", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_infinity_coord", "structured",
         '[{"bbox_2d": [Infinity, 2, 3, 4], "label": "cat"}]', True, False, []),
    case("s_label_unicode_blank", "structured",
         '[{"bbox_2d": [1, 2, 3, 4], "label": "\\u3000\\t\\u2028"}]', True, False, []),
    case("s_label_separator_controls", "structured",
         '[{"bbox_2d": [1, 2, 3, 4], "label": "\\u001c\\u001f"}]', True, False, []),
    case("s_label_unicode_ws_collapsed", "structured",
         '[{"bbox_2d": [1, 1, 9, 9], "label": " Traffic\\u00a0\\u3000 Light\\t"}]',
         True, True, [("Traffic Light", [1.0, 1.0, 9.0, 9.0], True)]),
    case("s_thousandths_space", "structured",
         '[{"bbox_2d": [0, 0, 1000, 1000], "label": "cat"}]',
         True, True, [("cat", [0.0, 0.0, 1000.0, 1000.0], True)],
         space="thousandths"),
]

PLAIN = [
    case("p_single", "plain", "cat-[100,200,300,400]",
         True, True, [("cat", [100.0, 200.0, 300.0, 400.0], True)], space="thousandths"),
    case("p_two", "plain", "cat-[100,200,300,400];dog-[500,500,900,900]",
         True, True,
         [("cat", [100.0, 200.0, 300.0, 400.0], True),
          ("dog", [500.0, 500.0, 900.0, 900.0], True)], space="thousandths"),
    case("p_space_after_sep", "plain", "cat-[100,200,300,400]; dog-[500,500,900,900]",
         True, True,
         [("cat", [100.0, 200.0, 300.0, 400.0], True),
          ("dog", [500.0, 500.0, 900.0, 900.0], True)], space="thousandths"),
    case("p_space_in_brackets", "plain", "cat-[ 100 , 200 , 300 , 400 ]",
         True, True, [("cat", [100.0, 200.0, 300.0, 400.0], True)], space="thousandths"),
    case("p_hyphen_label", "plain", "fire-hydrant-[0,0,100,100]",
         True, True, [("fire-hydrant", [0.0, 0.0, 100.0, 100.0], True)],
         space="thousandths"),
    case("p_space_label", "plain", "traffic light-[0,0,100,100]",
         True, True, [("traffic light", [0.0, 0.0, 100.0, 100.0], True)],
         space="thousandths"),
    case("p_fractional", "plain", "cat-[10.5,20.25,300.75,400.5]",
         True, True, [("cat", [10.5, 20.25, 300.75, 400.5], True)], space="thousandths"),
    case("p_bracket_in_label", "plain", "a-[b-[1,2,3,4]",
         True, True, [("a-[b", [1.0, 2.0, 3.0, 4.0], True)], space="thousandths"),
    case("p_full_extent", "plain", "person-[0,0,1000,1000]",
         True, True, [("person", [0.0, 0.0, 1000.0, 1000.0], True)], space="thousandths"),
    case("p_out_of_bounds", "plain", "cat-[0,0,1001,500]",
         True, False, [("cat", [0.0, 0.0, 1001.0, 500.0], False)], space="thousandths"),
    case("p_swapped_corners", "plain", "cat-[300,200,100,400]",
         True, False, [("cat", [300.0, 200.0, 100.0, 400.0], False)], space="thousandths"),
    case("p_zero_width", "plain", "cat-[100,200,100,400]",
         True, False, [("cat", [100.0, 200.0, 100.0, 400.0], False)], space="thousandths"),
    case("p_negative", "plain", "cat-[-5,0,100,100]",
         True, False, [("cat", [-5.0, 0.0, 100.0, 100.0], False)], space="thousandths"),
    case("p_plus_sign", "plain", "cat-[+5,0,100,100]",
         True, True, [("cat", [5.0, 0.0, 100.0, 100.0], True)], space="thousandths"),
    case("p_empty_is_abstention", "plain", "", True, True, [], space="thousandths"),
    case("p_ws_is_abstention", "plain", "  \n ", True, True, [], space="thousandths"),
    case("p_prose_only", "plain", "I cannot find any objects.", False, False, [],
         space="thousandths"),
    case("p_missing_bracket", "plain", "cat-100,200,300,400", False, False, [],
         space="thousandths"),
    case("p_truncated", "plain", "cat-[100,200,300", False, False, [], space="thousandths"),
    case("p_three_coords", "plain", "cat-[100,200,300]", False, False, [],
         space="thousandths"),
    case("p_five_coords", "plain", "cat-[1,2,3,4,5]", False, False, [],
         space="thousandths"),
    case("p_empty_label", "plain", "-[1,2,3,4]", False, False, [], space="thousandths"),
    case("p_trailing_semicolon", "plain", "cat-[100,200,300,400];", False, False, [],
         space="thousandths"),
    case("p_double_semicolon", "plain", "cat-[100,200,300,400];;dog-[1,2,3,4]",
         False, False, [], space="thousandths"),
    case("p_bare_fraction", "plain", "cat-[.5,0,100,100]", False, False, [],
         space="thousandths"),
    case("p_trailing_dot", "plain", "cat-[1.,0,100,100]", False, False, [],
         space="thousandths"),
    case("p_json_in_plain", "plain",
         '[{"bbox_2d": [1,2,3,4], "label": "cat"}]', False, False, [],
         space="thousandths"),
    case("p_duplicates_kept", "plain", "cat-[1,2,3,4];cat-[1,2,3,4]",
         True, True,
         [("cat", [1.0, 2.0, 3.0, 4.0], True), ("cat", [1.0, 2.0, 3.0, 4.0], True)],
         space="thousandths"),
    case("p_uppercase_label_kept", "plain", "CAT-[1,2,3,4]",
         True, True, [("CAT", [1.0, 2.0, 3.0, 4.0], True)], space="thousandths"),
    case("p_label_ws_collapsed", "plain", "traffic  light-[1,2,3,4]",
         True, True, [("traffic light", [1.0, 2.0, 3.0, 4.0], True)],
         space="thousandths"),
    case("p_label_unicode_ws_collapsed", "plain", "\u3000cat\u2003 dog -[1,2,3,4]",
         True, True, [("cat dog", [1.0, 2.0, 3.0, 4.0], True)], space="thousandths"),
    case("p_label_unicode_blank", "plain", "\u3000-[1,2,3,4]", False, False, [],
         space="thousandths"),
    case("p_mixed_validity", "plain", "cat-[0,0,100,100];dog-[0,0,2000,100]",
         True, False,
         [("cat", [0.0, 0.0, 100.0, 100.0], True),
          ("dog", [0.0, 0.0, 2000.0, 100.0], False)], space="thousandths"),
    case("p_leading_zeros", "plain", "cat-[007,008,100,100]",
         True, True, [("cat", [7.0, 8.0, 100.0, 100.0], True)], space="thousandths"),
]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="file to write (default: the committed one)")
    out = parser.parse_args(argv).out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for entry in STRUCTURED + PLAIN:
            handle.write(json.dumps(entry, ensure_ascii=False, sort_keys=True))
            handle.write("\n")
    print(f"wrote {len(STRUCTURED)} structured + {len(PLAIN)} plain cases -> {out}")


if __name__ == "__main__":
    main()
