import numpy as np

from symtiling import svgout

ELEMENTS_SVG = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="720" '
    'height="720" viewBox="-0.05 -1.05 1.1 1.1">\n'
    '<polyline points="0,-0 1,-0 1,-1" fill="none" stroke="#123456" '
    'stroke-width="0.0028001429" stroke-linejoin="round" '
    'stroke-linecap="round"/>\n'
    '<polygon points="0,-0 1,-0 1,-1" fill="none" stroke="#123456" '
    'stroke-width="0.0028001429" stroke-linejoin="round" '
    'stroke-linecap="round"/>\n'
    '<circle cx="0.5" cy="-0.5" r="0.25" fill="none" stroke="#abcdef" '
    'stroke-width="0.0022401143"/>\n'
    '<circle cx="0" cy="-1" r="0.0056002857" fill="#222222" '
    'stroke="none"/>\n'
    '</svg>\n'
)


def test_canvas_renders_each_element_format():
    canvas = svgout.Canvas()
    pts = [(0, 0), (1, 0), (1, 1)]
    canvas.polyline(pts, "#123456", 1.0)
    canvas.polyline(pts, "#123456", 1.0, closed=True)
    canvas.circle((0.5, 0.5), 0.25, "#abcdef", 0.8)
    canvas.dot((0, 1), 2.0, "#222222")
    assert canvas.render() == ELEMENTS_SVG


def test_disk_figure_puts_one_coordinate_on_the_x_axis():
    one = svgout.disk_figure([np.array([0.3])], []).render()
    assert one == svgout.disk_figure([(0.3, 0.0)], []).render()


def test_a_vertical_segment_gets_a_narrow_frame():
    """A box of zero width is padded to a thousandth of its height, so
    the figure keeps a width."""
    canvas = svgout.Canvas()
    canvas.polyline([(0, 0), (0, 10)], "#000000", 1.0)
    assert 'width="66" height="720"' in canvas.render()


def test_an_empty_canvas_frames_the_unit_square_around_the_origin():
    assert svgout.Canvas().render() == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="720" '
        'height="720" viewBox="-1 -1 2 2">\n'
        '</svg>\n')
