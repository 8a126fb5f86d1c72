// Package bgp implements a BGP-4 speaker (RFC 4271 subset) sufficient to
// emulate datacenter and WAN routing control planes: OPEN / UPDATE /
// KEEPALIVE / NOTIFICATION wire codecs, the session finite state machine,
// Adj-RIB-In / Loc-RIB with the standard decision process, ECMP multipath
// selection, and route propagation with AS-path loop prevention. WAN
// scenarios add iBGP with route reflection (RFC 4456: client sessions,
// ORIGINATOR_ID / CLUSTER_LIST loop prevention — see speaker.go) and
// route flap dampening (RFC 2439 subset — see dampening.go).
//
// In the original Horse the routers run Quagga; here the speaker is
// native Go but still exchanges real RFC 4271 bytes over a real duplex
// stream in real time, so the Connection Manager observes the same
// control plane activity pattern (Figure 1 of the paper: OPEN packets
// trigger DES->FTI, convergence keeps FTI, quiescence returns to DES).
package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Header and message size constraints.
const (
	headerLen  = 19
	markerLen  = 16
	maxMsgLen  = 4096
	bgpVersion = 4
)

// Path attribute type codes (RFC 4271 §4.3 / §5, plus the RFC 4456
// route-reflection attributes).
const (
	attrOrigin       = 1
	attrASPath       = 2
	attrNextHop      = 3
	attrMED          = 4
	attrLocalPref    = 5
	attrOriginatorID = 9
	attrClusterList  = 10
)

// Origin values.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// AS path segment types.
const (
	asSet      = 1
	asSequence = 2
)

// Notification error codes (RFC 4271 §4.5), subset.
const (
	NotifMsgHeaderError   = 1
	NotifOpenError        = 2
	NotifUpdateError      = 3
	NotifHoldTimerExpired = 4
	NotifFSMError         = 5
	NotifCease            = 6
)

// Open is the OPEN message body.
type Open struct {
	Version  uint8
	ASN      uint16
	HoldTime uint16 // seconds
	RouterID netip.Addr
}

// Update is the UPDATE message body: withdrawn routes, path attributes,
// and announced NLRI sharing those attributes.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttrs
	NLRI      []netip.Prefix
}

// PathAttrs are the path attributes Horse's decision process consumes.
type PathAttrs struct {
	Origin    uint8
	ASPath    []uint16 // AS_SEQUENCE, left-most = most recent
	NextHop   netip.Addr
	MED       uint32
	LocalPref uint32
	HasMED    bool
	HasLP     bool

	// OriginatorID (RFC 4456) is the router ID of the speaker that
	// first injected the route into the iBGP mesh; set by a route
	// reflector on reflection, invalid when absent. A speaker that sees
	// its own router ID here drops the route (reflection loop).
	OriginatorID netip.Addr
	// ClusterList (RFC 4456) records the reflection clusters the route
	// has traversed, most recent first. A reflector that finds its own
	// cluster ID in the list drops the route.
	ClusterList []netip.Addr
}

// Notification is the NOTIFICATION message body.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Error makes Notification usable as the error a session dies with.
func (n Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}

// Message is a decoded BGP message: exactly one of the fields is non-nil
// (Keepalive has no body and is represented by Type alone).
type Message struct {
	Type  uint8
	Open  *Open
	Upd   *Update
	Notif *Notification
}

// appendHeader writes the 19-byte header for a message of the given total
// length and type.
func appendHeader(b []byte, length int, typ uint8) []byte {
	for i := 0; i < markerLen; i++ {
		b = append(b, 0xFF)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	return append(b, typ)
}

// EncodeOpen serializes an OPEN message.
func EncodeOpen(o Open) []byte {
	body := make([]byte, 0, 10)
	body = append(body, o.Version)
	body = binary.BigEndian.AppendUint16(body, o.ASN)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	rid := o.RouterID.As4()
	body = append(body, rid[:]...)
	body = append(body, 0) // no optional parameters
	msg := appendHeader(nil, headerLen+len(body), MsgOpen)
	return append(msg, body...)
}

// EncodeKeepalive serializes a KEEPALIVE message.
func EncodeKeepalive() []byte {
	return appendHeader(nil, headerLen, MsgKeepalive)
}

// EncodeNotification serializes a NOTIFICATION message.
func EncodeNotification(n Notification) []byte {
	msg := appendHeader(nil, headerLen+2+len(n.Data), MsgNotification)
	msg = append(msg, n.Code, n.Subcode)
	return append(msg, n.Data...)
}

// encodePrefix writes a prefix in NLRI form (length byte + minimal bytes).
func encodePrefix(b []byte, p netip.Prefix) []byte {
	bits := p.Bits()
	b = append(b, byte(bits))
	a4 := p.Masked().Addr().As4()
	return append(b, a4[:(bits+7)/8]...)
}

// decodePrefix reads one NLRI prefix, returning it and the remaining
// bytes.
func decodePrefix(b []byte) (netip.Prefix, []byte, error) {
	if len(b) < 1 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: truncated NLRI")
	}
	bits := int(b[0])
	if bits > 32 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: NLRI prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 1+n {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: truncated NLRI body")
	}
	var a [4]byte
	copy(a[:], b[1:1+n])
	p := netip.PrefixFrom(netip.AddrFrom4(a), bits)
	return p.Masked(), b[1+n:], nil
}

// countPrefixes counts the encoded prefixes in b by walking their
// length octets, so decoding can size its slice once. It only reads
// the framing: a malformed tail ends the count and decodePrefix
// reports it.
func countPrefixes(b []byte) int {
	n := 0
	for len(b) > 0 && b[0] <= 32 {
		n++
		b = b[min(len(b), 1+(int(b[0])+7)/8):]
	}
	return n
}

// encodeAttrs serializes one path-attribute set (the per-message attrs
// block both EncodeUpdate and PackUpdates share).
func encodeAttrs(a PathAttrs) ([]byte, error) {
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("bgp: update with NLRI requires IPv4 next hop")
	}
	var attrs []byte
	// ORIGIN: flags 0x40 (well-known transitive).
	attrs = append(attrs, 0x40, attrOrigin, 1, a.Origin)
	// AS_PATH: one AS_SEQUENCE segment (possibly empty).
	seg := []byte{}
	if len(a.ASPath) > 0 {
		seg = append(seg, asSequence, byte(len(a.ASPath)))
		for _, asn := range a.ASPath {
			seg = binary.BigEndian.AppendUint16(seg, asn)
		}
	}
	attrs = append(attrs, 0x40, attrASPath, byte(len(seg)))
	attrs = append(attrs, seg...)
	// NEXT_HOP.
	nh := a.NextHop.As4()
	attrs = append(attrs, 0x40, attrNextHop, 4)
	attrs = append(attrs, nh[:]...)
	if a.HasMED {
		attrs = append(attrs, 0x80, attrMED, 4) // optional non-transitive
		attrs = binary.BigEndian.AppendUint32(attrs, a.MED)
	}
	if a.HasLP {
		attrs = append(attrs, 0x40, attrLocalPref, 4)
		attrs = binary.BigEndian.AppendUint32(attrs, a.LocalPref)
	}
	if a.OriginatorID.Is4() {
		oid := a.OriginatorID.As4()
		attrs = append(attrs, 0x80, attrOriginatorID, 4) // optional non-transitive
		attrs = append(attrs, oid[:]...)
	}
	if len(a.ClusterList) > 0 {
		// Extended length: a deep reflection hierarchy can push the
		// list past the 255-byte short form.
		attrs = append(attrs, 0x90, attrClusterList)
		attrs = binary.BigEndian.AppendUint16(attrs, uint16(4*len(a.ClusterList)))
		for _, c := range a.ClusterList {
			c4 := c.As4()
			attrs = append(attrs, c4[:]...)
		}
	}
	return attrs, nil
}

// EncodeUpdate serializes an UPDATE message. Attributes are included only
// when NLRI is announced.
func EncodeUpdate(u Update) ([]byte, error) {
	var withdrawn []byte
	for _, p := range u.Withdrawn {
		withdrawn = encodePrefix(withdrawn, p)
	}
	var attrs []byte
	if len(u.NLRI) > 0 {
		var err error
		if attrs, err = encodeAttrs(u.Attrs); err != nil {
			return nil, err
		}
	}
	var nlri []byte
	for _, p := range u.NLRI {
		nlri = encodePrefix(nlri, p)
	}
	total := headerLen + 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	if total > maxMsgLen {
		return nil, fmt.Errorf("bgp: update too large (%d bytes)", total)
	}
	msg := appendHeader(nil, total, MsgUpdate)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(withdrawn)))
	msg = append(msg, withdrawn...)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
	msg = append(msg, attrs...)
	return append(msg, nlri...), nil
}

// UpdateGroup is one attribute-sharing announcement batch for
// PackUpdates: every NLRI prefix is advertised with Attrs.
type UpdateGroup struct {
	Attrs PathAttrs
	NLRI  []netip.Prefix
}

// PackUpdates encodes a flush batch — shared withdrawals plus
// announcement groups — into the minimum number of UPDATE messages. An
// UPDATE carries one path-attribute set, so each group needs at least
// one message, but many NLRIs (and the pending withdrawals) ride in it:
// the withdrawals fill the front of the first messages, and each
// group's NLRI packs until the 4096-byte message limit forces a split.
// With G attribute groups and everything fitting, exactly max(G, 1)
// messages come out — O(attr-groups), not O(prefixes).
func PackUpdates(withdrawn []netip.Prefix, groups []UpdateGroup) ([][]byte, error) {
	var msgs [][]byte
	wi := 0 // next withdrawn prefix to place
	for _, g := range groups {
		if len(g.NLRI) == 0 {
			continue
		}
		attrs, err := encodeAttrs(g.Attrs)
		if err != nil {
			return nil, err
		}
		if headerLen+4+len(attrs)+maxPrefixEnc > maxMsgLen {
			return nil, fmt.Errorf("bgp: attributes too large to pack (%d bytes)", len(attrs))
		}
		ni := 0
		for ni < len(g.NLRI) {
			var wd, nlri []byte
			budget := maxMsgLen - headerLen - 4 - len(attrs)
			// Withdrawals first (they fit wherever room remains; the
			// receiver processes them before the same message's NLRI).
			for wi < len(withdrawn) {
				next := encodePrefix(wd, withdrawn[wi])
				// Always leave room for at least one NLRI prefix, or
				// the attrs block would ship without announcements.
				if len(next)+maxPrefixEnc > budget {
					break
				}
				wd = next
				wi++
			}
			for ni < len(g.NLRI) {
				next := encodePrefix(nlri, g.NLRI[ni])
				if len(wd)+len(next) > budget {
					break
				}
				nlri = next
				ni++
			}
			total := headerLen + 2 + len(wd) + 2 + len(attrs) + len(nlri)
			msg := appendHeader(nil, total, MsgUpdate)
			msg = binary.BigEndian.AppendUint16(msg, uint16(len(wd)))
			msg = append(msg, wd...)
			msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
			msg = append(msg, attrs...)
			msgs = append(msgs, append(msg, nlri...))
		}
	}
	// Leftover withdrawals (no groups, or no room left): withdraw-only
	// messages.
	for wi < len(withdrawn) {
		var wd []byte
		budget := maxMsgLen - headerLen - 4
		for wi < len(withdrawn) {
			next := encodePrefix(wd, withdrawn[wi])
			if len(next) > budget {
				break
			}
			wd = next
			wi++
		}
		total := headerLen + 2 + len(wd) + 2
		msg := appendHeader(nil, total, MsgUpdate)
		msg = binary.BigEndian.AppendUint16(msg, uint16(len(wd)))
		msg = append(msg, wd...)
		msg = binary.BigEndian.AppendUint16(msg, 0)
		msgs = append(msgs, msg)
	}
	return msgs, nil
}

// maxPrefixEnc is the NLRI encoding size of a /32 (length byte + 4).
const maxPrefixEnc = 5

// Decode parses one complete BGP message from buf (which must contain
// exactly one message, header included).
func Decode(buf []byte) (*Message, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("bgp: short message (%d bytes)", len(buf))
	}
	for i := 0; i < markerLen; i++ {
		if buf[i] != 0xFF {
			return nil, Notification{Code: NotifMsgHeaderError, Subcode: 1} // connection not synchronized
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:18]))
	typ := buf[18]
	if length != len(buf) || length < headerLen || length > maxMsgLen {
		return nil, Notification{Code: NotifMsgHeaderError, Subcode: 2} // bad message length
	}
	body := buf[headerLen:]
	switch typ {
	case MsgOpen:
		return decodeOpen(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, Notification{Code: NotifMsgHeaderError, Subcode: 2}
		}
		return &Message{Type: MsgKeepalive}, nil
	case MsgUpdate:
		return decodeUpdate(body)
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: truncated notification")
		}
		return &Message{Type: MsgNotification, Notif: &Notification{
			Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...),
		}}, nil
	default:
		return nil, Notification{Code: NotifMsgHeaderError, Subcode: 3} // bad message type
	}
}

func decodeOpen(body []byte) (*Message, error) {
	if len(body) < 10 {
		return nil, Notification{Code: NotifOpenError, Subcode: 0}
	}
	o := &Open{
		Version:  body[0],
		ASN:      binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		RouterID: netip.AddrFrom4([4]byte(body[5:9])),
	}
	if o.Version != bgpVersion {
		return nil, Notification{Code: NotifOpenError, Subcode: 1} // unsupported version
	}
	// Hold time of 1 or 2 seconds is illegal (RFC 4271 §6.2).
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return nil, Notification{Code: NotifOpenError, Subcode: 6}
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return nil, Notification{Code: NotifOpenError, Subcode: 0}
	}
	return &Message{Type: MsgOpen, Open: o}, nil
}

func decodeUpdate(body []byte) (*Message, error) {
	u := &Update{}
	if len(body) < 2 {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wlen {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	wd := body[:wlen]
	body = body[wlen:]
	if n := countPrefixes(wd); n > 0 {
		u.Withdrawn = make([]netip.Prefix, 0, n)
	}
	for len(wd) > 0 {
		p, rest, err := decodePrefix(wd)
		if err != nil {
			return nil, Notification{Code: NotifUpdateError, Subcode: 10}
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wd = rest
	}
	if len(body) < 2 {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	alen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < alen {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	attrs := body[:alen]
	nlri := body[alen:]
	seenNextHop := false
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, Notification{Code: NotifUpdateError, Subcode: 1}
		}
		flags := attrs[0]
		typ := attrs[1]
		var alen int
		var val []byte
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			alen = int(binary.BigEndian.Uint16(attrs[2:4]))
			if len(attrs) < 4+alen {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			val = attrs[4 : 4+alen]
			attrs = attrs[4+alen:]
		} else {
			alen = int(attrs[2])
			if len(attrs) < 3+alen {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			val = attrs[3 : 3+alen]
			attrs = attrs[3+alen:]
		}
		switch typ {
		case attrOrigin:
			if len(val) != 1 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.Origin = val[0]
		case attrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				segType, count := val[0], int(val[1])
				if len(val) < 2+2*count {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				if segType != asSequence && segType != asSet {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				for i := 0; i < count; i++ {
					u.Attrs.ASPath = append(u.Attrs.ASPath, binary.BigEndian.Uint16(val[2+2*i:4+2*i]))
				}
				val = val[2+2*count:]
			}
		case attrNextHop:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 8}
			}
			u.Attrs.NextHop = netip.AddrFrom4([4]byte(val))
			seenNextHop = true
		case attrMED:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.MED = binary.BigEndian.Uint32(val)
			u.Attrs.HasMED = true
		case attrLocalPref:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.LocalPref = binary.BigEndian.Uint32(val)
			u.Attrs.HasLP = true
		case attrOriginatorID:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.OriginatorID = netip.AddrFrom4([4]byte(val))
		case attrClusterList:
			if len(val)%4 != 0 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			for i := 0; i+4 <= len(val); i += 4 {
				u.Attrs.ClusterList = append(u.Attrs.ClusterList, netip.AddrFrom4([4]byte(val[i:i+4])))
			}
		default:
			// Unrecognized optional attributes are ignored (we do not
			// propagate unknown transitives: Horse's scenarios are
			// single-implementation).
		}
	}
	if n := countPrefixes(nlri); n > 0 {
		u.NLRI = make([]netip.Prefix, 0, n)
	}
	for len(nlri) > 0 {
		p, rest, err := decodePrefix(nlri)
		if err != nil {
			return nil, Notification{Code: NotifUpdateError, Subcode: 10}
		}
		u.NLRI = append(u.NLRI, p)
		nlri = rest
	}
	if len(u.NLRI) > 0 && !seenNextHop {
		return nil, Notification{Code: NotifUpdateError, Subcode: 3} // missing well-known attribute
	}
	return &Message{Type: MsgUpdate, Upd: u}, nil
}

// ReadMessage reads exactly one BGP message from r (blocking), returning
// the raw bytes of the full message.
func ReadMessage(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	hdr := make([]byte, headerLen)
	if err := readFull(r, hdr); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < headerLen || length > maxMsgLen {
		return nil, fmt.Errorf("bgp: invalid length %d in header", length)
	}
	msg := make([]byte, length)
	copy(msg, hdr)
	if err := readFull(r, msg[headerLen:]); err != nil {
		return nil, err
	}
	return msg, nil
}

func readFull(r interface{ Read([]byte) (int, error) }, b []byte) error {
	for off := 0; off < len(b); {
		n, err := r.Read(b[off:])
		off += n
		if err != nil && off < len(b) {
			return err
		}
		if n == 0 && err != nil {
			return err
		}
	}
	return nil
}

// hasASN reports whether path contains asn (loop detection).
func hasASN(path []uint16, asn uint16) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}

// ASN16 converts a configured 32-bit ASN to the 2-octet wire form,
// rejecting values that do not fit (Horse scenarios use private 16-bit
// ASNs, as RFC 7938 datacenters commonly do).
func ASN16(asn uint32) (uint16, error) {
	if asn == 0 || asn > 0xFFFF {
		return 0, fmt.Errorf("bgp: ASN %d not representable in 2 octets", asn)
	}
	return uint16(asn), nil
}
