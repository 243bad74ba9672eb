// Package pagecodec is a miniature copy of the engine's page codec for
// the pageretain fixtures.
package pagecodec

import "core"

// AppendPageSum encodes pg onto buf as a checksummed frame.
func AppendPageSum(buf []byte, pg core.Page) []byte {
	_ = pg
	return buf
}

// DecodePageSum decodes one checksummed page from buf. aliasBytes reports
// how many bytes of the decoded payloads still alias buf; if non-zero, buf
// must outlive the page (or the page must be deep-copied) before buf is
// recycled.
func DecodePageSum(buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	return DecodePageInto(nil, buf)
}

// DecodePageInto is DecodePageSum decoding over a recycled record array.
func DecodePageInto(into core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	return into[:0], len(buf), len(buf), nil
}
