package capture

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func buildIPv4UDP(t testing.TB, payload []byte) []byte {
	t.Helper()
	buf := NewSerializeBuffer()
	err := SerializeLayers(buf,
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("8.8.8.8")},
		&UDP{SrcPort: 40000, DstPort: 53},
		Payload(payload),
	)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(buf.Bytes())
}

func TestIPv4UDPRoundTrip(t *testing.T) {
	data := buildIPv4UDP(t, []byte("hello dns"))
	p := NewPacket(data, TypeIPv4, Default)
	if p.ErrorLayer() != nil {
		t.Fatalf("decode error: %v", p.ErrorLayer())
	}
	ip, ok := p.Layer(TypeIPv4).(*IPv4)
	if !ok {
		t.Fatal("no IPv4 layer")
	}
	if ip.Src != mustAddr("10.0.0.1") || ip.Dst != mustAddr("8.8.8.8") {
		t.Errorf("addresses: %v -> %v", ip.Src, ip.Dst)
	}
	if ip.TTL != 64 || ip.Protocol != ProtoUDP {
		t.Errorf("TTL=%d proto=%d", ip.TTL, ip.Protocol)
	}
	udp, ok := p.Layer(TypeUDP).(*UDP)
	if !ok {
		t.Fatal("no UDP layer")
	}
	if udp.SrcPort != 40000 || udp.DstPort != 53 {
		t.Errorf("ports: %d -> %d", udp.SrcPort, udp.DstPort)
	}
	if string(p.ApplicationLayer()) != "hello dns" {
		t.Errorf("payload = %q", p.ApplicationLayer())
	}
	if p.String() != "IPv4/UDP/Payload" {
		t.Errorf("stack = %s", p.String())
	}
}

func TestIPv6TCPRoundTrip(t *testing.T) {
	buf := NewSerializeBuffer()
	err := SerializeLayers(buf,
		&IPv6{HopLimit: 60, Next: ProtoTCP, Src: mustAddr("2001:db8::1"), Dst: mustAddr("2001:db8::2")},
		&TCP{SrcPort: 55555, DstPort: 443, Seq: 7, Ack: 9, Flags: FlagSYN | FlagACK},
		Payload([]byte("tls hello")),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPacket(buf.Bytes(), TypeIPv6, Default)
	if p.ErrorLayer() != nil {
		t.Fatalf("decode error: %v", p.ErrorLayer())
	}
	ip := p.NetworkLayer().(*IPv6)
	if ip.Src != mustAddr("2001:db8::1") {
		t.Errorf("src = %v", ip.Src)
	}
	tcp := p.TransportLayer().(*TCP)
	if !tcp.SYN() || !tcp.ACK() || tcp.RST() {
		t.Errorf("flags = %08b", tcp.Flags)
	}
	if tcp.Seq != 7 || tcp.Ack != 9 {
		t.Errorf("seq/ack = %d/%d", tcp.Seq, tcp.Ack)
	}
	if string(p.ApplicationLayer()) != "tls hello" {
		t.Errorf("payload = %q", p.ApplicationLayer())
	}
}

func TestICMPRoundTrip(t *testing.T) {
	buf := NewSerializeBuffer()
	err := SerializeLayers(buf,
		&IPv4{TTL: 64, Protocol: ProtoICMP, Src: mustAddr("1.1.1.1"), Dst: mustAddr("2.2.2.2")},
		&ICMP{TypeCode: ICMPEchoRequest, ID: 77, Seq: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPacket(buf.Bytes(), TypeIPv4, Default)
	ic, ok := p.Layer(TypeICMP).(*ICMP)
	if !ok {
		t.Fatalf("no ICMP layer in %s", p)
	}
	if ic.TypeCode != ICMPEchoRequest || ic.ID != 77 || ic.Seq != 3 {
		t.Errorf("icmp = %+v", ic)
	}
}

func TestTunnelScrambleRoundTrip(t *testing.T) {
	inner := buildIPv4UDP(t, []byte("secret query"))
	enc := bytes.Clone(inner)
	Scramble(12345, enc)
	if bytes.Equal(enc, inner) {
		t.Fatal("scramble must change bytes")
	}
	// Inner cleartext must not appear in the scrambled body.
	if bytes.Contains(enc, []byte("secret query")) {
		t.Fatal("cleartext visible through tunnel")
	}
	buf := NewSerializeBuffer()
	err := SerializeLayers(buf,
		&IPv4{TTL: 64, Protocol: ProtoTunnel, Src: mustAddr("10.0.0.1"), Dst: mustAddr("93.184.216.34")},
		&Tunnel{SessionID: 12345},
		Payload(enc),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPacket(buf.Bytes(), TypeIPv4, Default)
	tn, ok := p.Layer(TypeTunnel).(*Tunnel)
	if !ok {
		t.Fatalf("no tunnel layer in %s", p)
	}
	if tn.SessionID != 12345 {
		t.Errorf("session = %d", tn.SessionID)
	}
	dec := bytes.Clone(tn.LayerPayload())
	Scramble(12345, dec)
	if !bytes.Equal(dec, inner) {
		t.Fatal("scramble is not an involution")
	}
}

func TestDecodeErrors(t *testing.T) {
	// Truncated IPv4.
	p := NewPacket([]byte{0x45, 0, 0}, TypeIPv4, Default)
	if p.ErrorLayer() == nil {
		t.Error("expected error for truncated IPv4")
	}
	// Wrong version nibble.
	bad := make([]byte, 20)
	bad[0] = 0x65
	p = NewPacket(bad, TypeIPv4, Default)
	if p.ErrorLayer() == nil {
		t.Error("expected error for bad version")
	}
	// Bad tunnel magic.
	p = NewPacket([]byte("XXXX1234"), TypeTunnel, Default)
	if p.ErrorLayer() == nil {
		t.Error("expected error for bad tunnel magic")
	}
	// Layers decoded before the failure stay available.
	data := buildIPv4UDP(t, []byte("x"))
	trunc := data[:22] // cuts into the UDP header
	// Fix up IPv4 total length so the IPv4 layer itself decodes.
	trunc[2], trunc[3] = 0, 22
	p = NewPacket(trunc, TypeIPv4, Default)
	if p.Layer(TypeIPv4) == nil {
		t.Error("IPv4 layer should survive downstream decode failure")
	}
	if p.ErrorLayer() == nil || p.ErrorLayer().Type != TypeUDP {
		t.Errorf("error layer = %v", p.ErrorLayer())
	}
}

func TestNoCopySemantics(t *testing.T) {
	data := buildIPv4UDP(t, []byte("aaaa"))
	pCopy := NewPacket(data, TypeIPv4, Default)
	pNoCopy := NewPacket(data, TypeIPv4, NoCopy)
	data[len(data)-1] = 'z'
	if string(pCopy.ApplicationLayer()) != "aaaa" {
		t.Error("Default mode must be immune to caller mutation")
	}
	if string(pNoCopy.ApplicationLayer()) == "aaaa" {
		t.Error("NoCopy mode shares the caller's bytes")
	}
}

func TestFlows(t *testing.T) {
	data := buildIPv4UDP(t, []byte("q"))
	p := NewPacket(data, TypeIPv4, Default)
	nf := p.NetworkLayer().NetworkFlow()
	if nf.Kind != EndpointIP {
		t.Errorf("kind = %v", nf.Kind)
	}
	rev := Flow{nf.Kind, nf.Dst(), nf.Src()}
	if nf.Key() == rev.Key() {
		t.Error("Key must be directional")
	}
	tf := p.TransportLayer().TransportFlow()
	if tf.Kind != EndpointUDPPort {
		t.Errorf("transport kind = %v", tf.Kind)
	}
}

func TestDecodingLayerParser(t *testing.T) {
	var ip4 IPv4
	var udp UDP
	parser := NewDecodingLayerParser(TypeIPv4, &ip4, &udp)
	decoded := []LayerType{}
	data := buildIPv4UDP(t, []byte("fast path"))
	if err := parser.DecodeLayers(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0] != TypeIPv4 || decoded[1] != TypeUDP {
		t.Fatalf("decoded = %v", decoded)
	}
	if udp.DstPort != 53 {
		t.Errorf("dst port = %d", udp.DstPort)
	}
	// An unregistered next layer stops cleanly.
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf,
		&IPv4{TTL: 1, Protocol: ProtoTCP, Src: mustAddr("1.2.3.4"), Dst: mustAddr("4.3.2.1")},
		&TCP{SrcPort: 1, DstPort: 2},
	); err != nil {
		t.Fatal(err)
	}
	if err := parser.DecodeLayers(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0] != TypeIPv4 {
		t.Fatalf("decoded = %v, want [IPv4]", decoded)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	big := make(Payload, 10000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := big.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), big) {
		t.Fatal("large prepend corrupted data")
	}
	// Prepend after growth keeps existing bytes.
	front := b.Prepend(4)
	copy(front, "abcd")
	got := b.Bytes()
	if string(got[:4]) != "abcd" || !bytes.Equal(got[4:], big) {
		t.Fatal("prepend after growth corrupted data")
	}
}

func TestIPv4Checksum(t *testing.T) {
	data := buildIPv4UDP(t, []byte("x"))
	// Recompute checksum over the received header; a correct RFC 791
	// checksum makes the full-header one's-complement sum equal 0xFFFF.
	var sum uint32
	for i := 0; i+1 < ipv4HeaderLen; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	if sum != 0xFFFF {
		t.Errorf("header checksum does not verify: sum=%#x", sum)
	}
}

func TestSerializeRejectsWrongFamily(t *testing.T) {
	buf := NewSerializeBuffer()
	ip := &IPv4{Src: mustAddr("2001:db8::1"), Dst: mustAddr("1.2.3.4"), Protocol: ProtoUDP}
	if err := ip.SerializeTo(buf); err == nil {
		t.Error("IPv4 layer must reject v6 addresses")
	}
	buf.Clear()
	ip6 := &IPv6{Src: mustAddr("1.2.3.4"), Dst: mustAddr("2001:db8::1"), Next: ProtoUDP}
	if err := ip6.SerializeTo(buf); err == nil {
		t.Error("IPv6 layer must reject v4 addresses")
	}
}

func TestScrambleProperties(t *testing.T) {
	if err := quick.Check(func(key uint32, data []byte) bool {
		orig := bytes.Clone(data)
		Scramble(key, data)
		Scramble(key, data)
		return bytes.Equal(data, orig)
	}, nil); err != nil {
		t.Fatal("scramble involution:", err)
	}
	// Different keys produce different ciphertexts (over non-trivial data).
	data := bytes.Repeat([]byte("A"), 64)
	a, b := bytes.Clone(data), bytes.Clone(data)
	Scramble(1, a)
	Scramble(2, b)
	if bytes.Equal(a, b) {
		t.Fatal("different keys produced identical ciphertext")
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	// Any payload survives serialize->decode unchanged.
	if err := quick.Check(func(payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		buf := NewSerializeBuffer()
		err := SerializeLayers(buf,
			&IPv4{TTL: 64, Protocol: ProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")},
			&UDP{SrcPort: 1234, DstPort: 5678},
			Payload(payload),
		)
		if err != nil {
			return false
		}
		p := NewPacket(buf.Bytes(), TypeIPv4, Default)
		if p.ErrorLayer() != nil {
			return false
		}
		return bytes.Equal(p.ApplicationLayer(), payload)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSinkAndPcapRoundTrip(t *testing.T) {
	s := NewSink()
	d1 := buildIPv4UDP(t, []byte("one"))
	d2 := buildIPv4UDP(t, []byte("two"))
	s.Capture(1500*time.Millisecond, "en0", DirOut, d1)
	s.Capture(2500*time.Millisecond, "utun0", DirIn, d2)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	outOnly := s.Filter(func(r Record) bool { return r.Dir == DirOut })
	if len(outOnly) != 1 || outOnly[0].Interface != "en0" {
		t.Fatalf("filter = %+v", outOnly)
	}

	var buf bytes.Buffer
	if err := WritePcap(&buf, s.Records()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d records", len(back))
	}
	if !bytes.Equal(back[0].Data, d1) || !bytes.Equal(back[1].Data, d2) {
		t.Fatal("pcap round trip corrupted data")
	}
	if back[0].Time != 1500*time.Millisecond {
		t.Errorf("timestamp = %v", back[0].Time)
	}
	// Capture must copy: mutate the original buffer.
	d1[0] = 0xFF
	if s.Records()[0].Data[0] == 0xFF {
		t.Error("sink must copy packet bytes")
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all......"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestSinkReset(t *testing.T) {
	s := NewSink()
	s.Capture(0, "en0", DirOut, []byte{1})
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func BenchmarkNewPacket(b *testing.B) {
	data := buildIPv4UDP(b, bytes.Repeat([]byte("q"), 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewPacket(data, TypeIPv4, Default)
	}
}

// BenchmarkDecodingLayerParser is the ablation bench for DESIGN.md key
// decision 3: the preallocated fast path vs NewPacket.
func BenchmarkDecodingLayerParser(b *testing.B) {
	data := buildIPv4UDP(b, bytes.Repeat([]byte("q"), 64))
	var ip4 IPv4
	var udp UDP
	parser := NewDecodingLayerParser(TypeIPv4, &ip4, &udp)
	decoded := make([]LayerType, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parser.DecodeLayers(data, &decoded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeLayers(b *testing.B) {
	buf := NewSerializeBuffer()
	ip := &IPv4{TTL: 64, Protocol: ProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("8.8.8.8")}
	udp := &UDP{SrcPort: 40000, DstPort: 53}
	payload := Payload(bytes.Repeat([]byte("q"), 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SerializeLayers(buf, ip, udp, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScramble(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Scramble(42, data)
	}
}
