package vec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// The fvecs format used by the standard ANN benchmark corpora (Sift1M,
// Gist, Deep1B, ...) stores each vector as a little-endian int32 dimension
// header followed by dim float32 elements. ppanns-dbtool reads and writes
// it; the synthetic generators in internal/dataset stand in for the
// corpora themselves.

// readFvecs parses an fvecs stream into a Dataset, converting float32
// elements to float64. maxVectors <= 0 means read everything.
func readFvecs(r io.Reader, maxVectors int) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var ds *Dataset
	for n := 0; maxVectors <= 0 || n < maxVectors; n++ {
		dim, err := readDimHeader(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("vec: fvecs vector %d: %w", n, err)
		}
		if ds == nil {
			ds = newDataset(dim, 1024)
		} else if dim != ds.Dim() {
			return nil, fmt.Errorf("vec: fvecs vector %d has dim %d, want %d", n, dim, ds.Dim())
		}
		_, row := ds.AppendZero()
		buf := make([]byte, 4*dim)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("vec: fvecs vector %d body: %w", n, err)
		}
		for i := 0; i < dim; i++ {
			row[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	if ds == nil {
		return nil, fmt.Errorf("vec: empty fvecs stream")
	}
	return ds, nil
}

// WriteFvecs writes the dataset in fvecs format (float64 narrowed to
// float32).
func WriteFvecs(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 4)
	buf := make([]byte, 4*ds.Dim())
	for i := 0; i < ds.Len(); i++ {
		binary.LittleEndian.PutUint32(hdr, uint32(ds.Dim()))
		if _, err := bw.Write(hdr); err != nil {
			return fmt.Errorf("vec: writing fvecs header: %w", err)
		}
		row := ds.At(i)
		for j, v := range row {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(float32(v)))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("vec: writing fvecs body: %w", err)
		}
	}
	return bw.Flush()
}

// LoadFvecsFile reads an fvecs file from disk.
func LoadFvecsFile(path string, maxVectors int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readFvecs(f, maxVectors)
}

func readDimHeader(br *bufio.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("vec: truncated dimension header")
		}
		return 0, err
	}
	dim := int(int32(binary.LittleEndian.Uint32(hdr[:])))
	if dim <= 0 || dim > 1<<20 {
		return 0, fmt.Errorf("vec: implausible vector dimension %d", dim)
	}
	return dim, nil
}
