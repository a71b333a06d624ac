//===- Store.cpp - Durable multi-process artifact store -------------------===//

#include "store/Store.h"

#include "support/Crc32c.h"
#include "support/Endian.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_set>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace retypd;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Record framing
//===----------------------------------------------------------------------===//

namespace {

/// Dispatches on the two strerror_r flavors: XSI returns int and fills
/// Buf; GNU returns the message pointer (which may ignore Buf).
template <class Ret> const char *strerrorResult(Ret, const char *Buf) {
  return Buf;
}
const char *strerrorResult(char *Msg, const char *Buf) {
  return Msg ? Msg : Buf;
}

/// Thread-safe errno rendering: multiple store writers can fail
/// concurrently, and strerror shares a static buffer.
std::string errnoString(int E) {
  char Buf[128] = "unknown error";
  return strerrorResult(strerror_r(E, Buf, sizeof(Buf)), Buf);
}

/// kind(1) + key(16) + crc(4) + at least one length byte.
constexpr size_t kMinRecordBytes = 1 + 16 + 4 + 1;
/// Sanity cap on a record body; a corrupt length beyond this is treated
/// as a torn tail rather than a multi-GB skip.
constexpr size_t kMaxBodyBytes = size_t(1) << 30;
/// Sanity cap on a pool name; same torn-tail treatment.
constexpr size_t kMaxPoolNameBytes = size_t(1) << 20;

void putLeb(std::string &Out, uint64_t V) {
  do {
    unsigned char B = V & 0x7f;
    V >>= 7;
    if (V)
      B |= 0x80;
    Out.push_back(static_cast<char>(B));
  } while (V);
}

/// Serializes one record. The CRC covers kind, key, the LEB length
/// bytes, and the body — the whole record except the CRC field itself —
/// so no part of the framing is trusted on read. Returns the offset of
/// the body within \p Out.
size_t serializeRecord(std::string &Out, const Hash128 &K,
                       std::string_view Body, uint8_t Kind) {
  std::string Leb;
  putLeb(Leb, Body.size());
  Crc32c C;
  C.updateByte(Kind);
  std::string KeyBytes;
  appendLE64(KeyBytes, K.Hi);
  appendLE64(KeyBytes, K.Lo);
  C.update(KeyBytes);
  C.update(Leb);
  C.update(Body);
  Out.push_back(static_cast<char>(Kind));
  Out += KeyBytes;
  appendLE32(Out, C.value());
  Out += Leb;
  size_t BodyOff = Out.size();
  Out.append(Body.data(), Body.size());
  return BodyOff;
}

struct RawRecord {
  size_t Start = 0;    ///< record start offset in the segment
  size_t TotalLen = 0; ///< whole-record length (frame + body)
  Hash128 Key;
  size_t BodyOff = 0;
  uint32_t BodyLen = 0;
  uint8_t Kind = 0;
  bool Corrupt = false; ///< frame complete but CRC mismatched
};

/// Scans [From, Bytes.size()) for records. A frame-complete record with
/// a bad CRC is reported Corrupt and skipped — its neighbors still scan.
/// Returns the "valid end": the offset of the first torn/incomplete
/// record, or the end of the scanned range. Everything past the valid
/// end is an unreadable tail.
size_t scanRecords(std::string_view Bytes, size_t From,
                   std::vector<RawRecord> &Out) {
  size_t Pos = From;
  const unsigned char *Base =
      reinterpret_cast<const unsigned char *>(Bytes.data());
  while (Pos + kMinRecordBytes <= Bytes.size()) {
    RawRecord R;
    R.Start = Pos;
    R.Kind = Base[Pos];
    R.Key.Hi = loadLE64(Base + Pos + 1);
    R.Key.Lo = loadLE64(Base + Pos + 9);
    uint32_t Crc = loadLE32(Base + Pos + 17);
    size_t LebPos = Pos + 21;
    uint64_t Len = 0;
    unsigned Shift = 0;
    size_t LebEnd = LebPos;
    bool LebOk = false;
    while (LebEnd < Bytes.size() && Shift < 64) {
      unsigned char B = Base[LebEnd++];
      Len |= static_cast<uint64_t>(B & 0x7f) << Shift;
      Shift += 7;
      if (!(B & 0x80)) {
        LebOk = true;
        break;
      }
    }
    if (!LebOk || Len > kMaxBodyBytes || Len > Bytes.size() - LebEnd)
      break; // torn tail: the frame itself is incomplete
    R.BodyOff = LebEnd;
    R.BodyLen = static_cast<uint32_t>(Len);
    R.TotalLen = (LebEnd - Pos) + Len;
    Crc32c C;
    C.update(Base + Pos, 17);                 // kind + key
    C.update(Base + LebPos, LebEnd - LebPos); // length bytes
    C.update(Base + LebEnd, Len);             // body
    R.Corrupt = C.value() != Crc;
    Out.push_back(R);
    Pos += R.TotalLen;
  }
  return Pos;
}

/// Scans [From, Bytes.size()) of a pool file for name records
/// (crc32c:u32le len:u32le bytes[len]; CRC covers len + bytes). A name's
/// pool id is its ordinal, so a bad record invalidates every id after
/// it — the scan stops at the first torn OR corrupt record, and records
/// past that point are unreachable (payloads referencing their ids fail
/// validation because the pool size excludes them). Returns the valid
/// end.
size_t scanPoolRecords(std::string_view Bytes, size_t From,
                       std::vector<std::string_view> &Out) {
  size_t Pos = From;
  const char *Base = Bytes.data();
  while (Pos + 8 <= Bytes.size()) {
    uint32_t Crc = loadLE32(Base + Pos);
    uint64_t Len = loadLE32(Base + Pos + 4);
    if (Len > kMaxPoolNameBytes || Len > Bytes.size() - Pos - 8)
      break;
    Crc32c C;
    C.update(Base + Pos + 4, 4 + Len);
    if (C.value() != Crc)
      break;
    Out.push_back(Bytes.substr(Pos + 8, Len));
    Pos += 8 + Len;
  }
  return Pos;
}

/// Serializes one pool name record.
void serializePoolRecord(std::string &Out, std::string_view Name) {
  std::string Framed;
  appendLE32(Framed, static_cast<uint32_t>(Name.size()));
  Framed.append(Name.data(), Name.size());
  Crc32c C;
  C.update(Framed);
  appendLE32(Out, C.value());
  Out += Framed;
}

//===----------------------------------------------------------------------===//
// MANIFEST and segment headers
//===----------------------------------------------------------------------===//

struct ManifestData {
  unsigned FormatVersion = 0;
  unsigned SchemaVersion = 0;
  uint64_t Generation = 0;
  std::string PoolName; ///< name-pool file ("" when none exists yet)
  std::vector<std::string> SegmentNames;
};

enum class ManifestStatus { Ok, Missing, Unrecognized, Stale, Newer };

bool versionIsNewer(unsigned Format, unsigned Schema, unsigned WantSchema) {
  return Format > kStoreFormatVersion ||
         (Format == kStoreFormatVersion && WantSchema != 0 &&
          Schema > WantSchema);
}

std::string versionMismatchError(unsigned Format, unsigned Schema,
                                 unsigned WantSchema) {
  std::string Versions = "(v" + std::to_string(Format) + " schema " +
                         std::to_string(Schema) + "; this binary: v" +
                         std::to_string(kStoreFormatVersion) + " schema " +
                         std::to_string(WantSchema) + ")";
  if (versionIsNewer(Format, Schema, WantSchema))
    return "artifact store is newer than this binary " + Versions +
           " — upgrade the binary or point it at a different store";
  return "stale artifact store " + Versions +
         " — re-run analyze to regenerate it";
}

/// Reads and classifies a MANIFEST. \p WantSchema 0 skips the schema
/// comparison (format version is still checked).
ManifestStatus readManifest(const std::string &Path, unsigned WantSchema,
                            ManifestData &Out, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = "cannot open MANIFEST";
    return ManifestStatus::Missing;
  }
  std::string Line;
  if (!std::getline(In, Line) ||
      std::sscanf(Line.c_str(), "retypd-store v%u schema %u",
                  &Out.FormatVersion, &Out.SchemaVersion) != 2) {
    if (Line.rfind("retypd-store", 0) == 0) {
      // A recognizable but unparseable header is an older layout.
      Out.FormatVersion = 0;
      Out.SchemaVersion = 0;
      if (Err)
        *Err = versionMismatchError(0, 0, WantSchema);
      return ManifestStatus::Stale;
    }
    if (Err)
      *Err = "unrecognized MANIFEST header: " + Line;
    return ManifestStatus::Unrecognized;
  }
  if (Out.FormatVersion != kStoreFormatVersion ||
      (WantSchema != 0 && Out.SchemaVersion != WantSchema)) {
    if (Err)
      *Err = versionMismatchError(Out.FormatVersion, Out.SchemaVersion,
                                  WantSchema);
    return versionIsNewer(Out.FormatVersion, Out.SchemaVersion, WantSchema)
               ? ManifestStatus::Newer
               : ManifestStatus::Stale;
  }
  bool HaveGen = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    unsigned long long G = 0;
    char NameBuf[256];
    if (std::sscanf(Line.c_str(), "generation %llu", &G) == 1) {
      Out.Generation = G;
      HaveGen = true;
    } else if (std::sscanf(Line.c_str(), "segment %255s", NameBuf) == 1) {
      std::string Name = NameBuf;
      // Segment names never leave the store directory.
      if (Name.find('/') != std::string::npos) {
        if (Err)
          *Err = "malformed MANIFEST: bad segment name '" + Name + "'";
        return ManifestStatus::Unrecognized;
      }
      Out.SegmentNames.push_back(std::move(Name));
    } else if (std::sscanf(Line.c_str(), "pool %255s", NameBuf) == 1) {
      std::string Name = NameBuf;
      if (Name.find('/') != std::string::npos || !Out.PoolName.empty()) {
        if (Err)
          *Err = "malformed MANIFEST: bad pool line '" + Line + "'";
        return ManifestStatus::Unrecognized;
      }
      Out.PoolName = std::move(Name);
    } else {
      if (Err)
        *Err = "malformed MANIFEST line: " + Line;
      return ManifestStatus::Unrecognized;
    }
  }
  // Zero segment lines is a valid empty store: the state between writing
  // the MANIFEST and the first flush, and what external tooling may leave
  // behind. Only a missing generation makes the file malformed.
  if (!HaveGen) {
    if (Err)
      *Err = "malformed MANIFEST: missing generation";
    return ManifestStatus::Unrecognized;
  }
  return ManifestStatus::Ok;
}

std::string renderManifest(const ManifestData &MD) {
  std::string Out = "retypd-store v" + std::to_string(MD.FormatVersion) +
                    " schema " + std::to_string(MD.SchemaVersion) + "\n" +
                    "generation " + std::to_string(MD.Generation) + "\n";
  if (!MD.PoolName.empty())
    Out += "pool " + MD.PoolName + "\n";
  for (const std::string &N : MD.SegmentNames)
    Out += "segment " + N + "\n";
  return Out;
}

std::string segmentHeader(unsigned SchemaVersion) {
  return "retypd-segment v" + std::to_string(kStoreFormatVersion) +
         " schema " + std::to_string(SchemaVersion) + "\n";
}

/// Parses a segment's header line. Returns the header length in bytes,
/// or 0 when the bytes do not start a segment of the wanted schema.
size_t parseSegmentHeader(std::string_view Bytes, unsigned WantSchema) {
  size_t Nl = Bytes.substr(0, 64).find('\n');
  if (Nl == std::string_view::npos)
    return 0;
  std::string Line(Bytes.substr(0, Nl));
  unsigned V = 0, S = 0;
  if (std::sscanf(Line.c_str(), "retypd-segment v%u schema %u", &V, &S) != 2)
    return 0;
  if (V != kStoreFormatVersion || (WantSchema != 0 && S != WantSchema))
    return 0;
  return Nl + 1;
}

std::string poolHeader(unsigned SchemaVersion) {
  return "retypd-pool v" + std::to_string(kStoreFormatVersion) + " schema " +
         std::to_string(SchemaVersion) + "\n";
}

/// Parses a pool file's header line; same contract as parseSegmentHeader.
size_t parsePoolHeader(std::string_view Bytes, unsigned WantSchema) {
  size_t Nl = Bytes.substr(0, 64).find('\n');
  if (Nl == std::string_view::npos)
    return 0;
  std::string Line(Bytes.substr(0, Nl));
  unsigned V = 0, S = 0;
  if (std::sscanf(Line.c_str(), "retypd-pool v%u schema %u", &V, &S) != 2)
    return 0;
  if (V != kStoreFormatVersion || (WantSchema != 0 && S != WantSchema))
    return 0;
  return Nl + 1;
}

//===----------------------------------------------------------------------===//
// POSIX helpers
//===----------------------------------------------------------------------===//

/// Advisory exclusive lock on <dir>/LOCK. Appenders and compaction hold
/// it while mutating the directory; readers never touch it.
class FileLock {
public:
  bool acquire(const std::string &Dir, std::string *Err) {
    std::string Path = Dir + "/LOCK";
    Fd = ::open(Path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (Fd < 0) {
      if (Err)
        *Err = "cannot open " + Path + ": " + errnoString(errno);
      return false;
    }
    if (::flock(Fd, LOCK_EX) != 0) {
      if (Err)
        *Err = "cannot lock " + Path + ": " + errnoString(errno);
      ::close(Fd);
      Fd = -1;
      return false;
    }
    return true;
  }
  ~FileLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }

private:
  int Fd = -1;
};

bool writeFileDurable(const std::string &Path, std::string_view Bytes,
                      bool Fsync, std::string *Err) {
  int Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    if (Err)
      *Err = "cannot create " + Path + ": " + errnoString(errno);
    return false;
  }
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        *Err = "cannot write " + Path + ": " + errnoString(errno);
      ::close(Fd);
      ::unlink(Path.c_str());
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  bool Ok = !Fsync || ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok) {
    if (Err)
      *Err = "cannot fsync " + Path;
    ::unlink(Path.c_str());
  }
  return Ok;
}

void fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd >= 0) {
    ::fsync(Fd); // best effort: rename durability
    ::close(Fd);
  }
}

/// Atomically publishes a MANIFEST via a uniquely named temp + rename.
bool writeManifest(const std::string &Dir, const ManifestData &MD,
                   bool Fsync, std::string *Err) {
  static std::atomic<uint64_t> Seq{0};
  std::string Tmp = Dir + "/MANIFEST.tmp." +
                    std::to_string(static_cast<long>(::getpid())) + "." +
                    std::to_string(Seq.fetch_add(1));
  if (!writeFileDurable(Tmp, renderManifest(MD), Fsync, Err))
    return false;
  std::string Final = Dir + "/MANIFEST";
  if (std::rename(Tmp.c_str(), Final.c_str()) != 0) {
    if (Err)
      *Err = "cannot publish MANIFEST: " + errnoString(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  if (Fsync)
    fsyncDir(Dir);
  return true;
}

std::string segmentName(uint64_t Gen, uint64_t Seq) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "seg-%06llx-%06llx.rseg",
                static_cast<unsigned long long>(Gen),
                static_cast<unsigned long long>(Seq));
  return Buf;
}

std::string poolFileName(uint64_t Gen) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "pool-%06llx.rpool",
                static_cast<unsigned long long>(Gen));
  return Buf;
}

bool parseSegmentName(const std::string &Name, uint64_t &Gen,
                      uint64_t &Seq) {
  unsigned long long G = 0, S = 0;
  char Tail[8] = {0};
  if (std::sscanf(Name.c_str(), "seg-%6llx-%6llx.rse%1s", &G, &S, Tail) != 3 ||
      Tail[0] != 'g')
    return false;
  Gen = G;
  Seq = S;
  return true;
}

bool preadAll(int Fd, char *Buf, size_t Len, off_t Off) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::pread(Fd, Buf + Done, Len - Done,
                        Off + static_cast<off_t>(Done));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Done += static_cast<size_t>(N);
  }
  return true;
}

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string S((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Segment state
//===----------------------------------------------------------------------===//

struct Store::Segment {
  std::string Name;
  int Fd = -1;
  bool Writable = false;
  bool Mmapped = false;
  const char *MapAddr = nullptr;
  size_t MapLen = 0;
  std::string FallbackBuf; ///< whole-file copy when mmap is unavailable
  size_t HeaderBytes = 0;
  size_t FileBytes = 0; ///< size at last scan
  size_t ValidEnd = 0;  ///< just past the last frame-complete record
  size_t Records = 0;   ///< frame-complete records scanned (live + dead)

  std::string_view bytes() const {
    if (Mmapped)
      return {MapAddr, FileBytes};
    return FallbackBuf;
  }

  void unmap() {
    if (Mmapped && MapAddr)
      ::munmap(const_cast<char *>(MapAddr), MapLen);
    Mmapped = false;
    MapAddr = nullptr;
    MapLen = 0;
  }

  void close() {
    unmap();
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    FallbackBuf.clear();
  }
};

Store::Store(std::string D, StoreOptions O) : Dir(std::move(D)), Opts(O) {}

Store::~Store() {
  std::unique_lock<std::shared_mutex> L(M);
  for (Segment &S : Segments)
    S.close();
}

//===----------------------------------------------------------------------===//
// Open / view loading
//===----------------------------------------------------------------------===//

bool Store::remapSegment(Segment &S, std::string *Err) {
  struct stat St;
  if (::fstat(S.Fd, &St) != 0) {
    if (Err)
      *Err = "cannot stat segment " + S.Name;
    return false;
  }
  size_t NewSize = static_cast<size_t>(St.st_size);
  S.unmap();
  S.FileBytes = NewSize;
  if (NewSize == 0)
    return true;
  void *Addr = ::mmap(nullptr, NewSize, PROT_READ, MAP_SHARED, S.Fd, 0);
  if (Addr != MAP_FAILED) {
    S.MapAddr = static_cast<const char *>(Addr);
    S.MapLen = NewSize;
    S.Mmapped = true;
    S.FallbackBuf.clear();
    return true;
  }
  // Filesystems without mmap support fall back to a one-time read copy;
  // lookups served from it are counted on StorePayloadCopies so the
  // zero-copy invariant tests can see the difference.
  S.FallbackBuf.resize(NewSize);
  if (!preadAll(S.Fd, S.FallbackBuf.data(), NewSize, 0)) {
    if (Err)
      *Err = "cannot read segment " + S.Name;
    return false;
  }
  return true;
}

bool Store::loadPoolLocked(const std::string &Name, std::string *Err) {
  if (Name.empty()) {
    if (!PoolNames.empty())
      ++PoolEpoch;
    PoolNames.clear();
    PoolIds.clear();
    PoolName.clear();
    PoolValidEnd = 0;
    PoolSynced = 0;
    return true;
  }
  if (Name == PoolName) {
    // Same file: it is append-only, so if it has not grown there is
    // nothing to do, and if it has, only the tail needs scanning.
    std::error_code EC;
    uintmax_t Sz = fs::file_size(Dir + "/" + Name, EC);
    if (!EC && Sz == PoolValidEnd)
      return true;
  }
  std::string Bytes = slurpFile(Dir + "/" + Name);
  bool TailOnly = Name == PoolName && Bytes.size() >= PoolValidEnd;
  size_t From = PoolValidEnd;
  if (!TailOnly) {
    From = parsePoolHeader(Bytes, Opts.SchemaVersion);
    if (From == 0) {
      if (Err)
        *Err = "pool " + Name + " has a bad header";
      return false;
    }
  }
  std::vector<std::string_view> Scanned;
  size_t ValidEnd = scanPoolRecords(Bytes, From, Scanned);
  if (TailOnly) {
    for (std::string_view N : Scanned) {
      std::string Owned(N);
      PoolIds.emplace(Owned, static_cast<uint32_t>(PoolNames.size()));
      PoolNames.push_back(std::move(Owned));
    }
  } else {
    // Wholesale (re)load. Translation tables built against the old
    // contents stay valid only if the new contents extend them — a
    // compaction carries the pool verbatim, so the common case keeps
    // the epoch.
    bool Extends = Scanned.size() >= PoolNames.size();
    for (size_t I = 0; Extends && I < PoolNames.size(); ++I)
      Extends = Scanned[I] == PoolNames[I];
    if (!Extends)
      ++PoolEpoch;
    PoolNames.clear();
    PoolIds.clear();
    PoolNames.reserve(Scanned.size());
    for (std::string_view N : Scanned) {
      std::string Owned(N);
      PoolIds.emplace(Owned, static_cast<uint32_t>(PoolNames.size()));
      PoolNames.push_back(std::move(Owned));
    }
  }
  PoolName = Name;
  PoolValidEnd = ValidEnd;
  PoolSynced = PoolNames.size();
  return true;
}

bool Store::loadViewLocked(std::string *Err) {
  for (Segment &S : Segments)
    S.close();
  Segments.clear();
  Index.clear();

  ManifestData MD;
  std::string E;
  ManifestStatus St =
      readManifest(Dir + "/MANIFEST", Opts.SchemaVersion, MD, &E);
  if (St != ManifestStatus::Ok) {
    if (Err)
      *Err = E;
    return false;
  }
  Generation = MD.Generation;
  // The pool loads BEFORE segments: scan-time payload validation checks
  // pool-mode name ids against the pool size.
  if (!loadPoolLocked(MD.PoolName, Err))
    return false;
  Segments.reserve(MD.SegmentNames.size());
  for (const std::string &Name : MD.SegmentNames) {
    Segments.emplace_back();
    Segment &S = Segments.back();
    S.Name = Name;
    std::string Path = Dir + "/" + Name;
    S.Fd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
    S.Writable = S.Fd >= 0;
    if (S.Fd < 0)
      S.Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (S.Fd < 0) {
      if (Err)
        *Err = "missing segment " + Name;
      return false;
    }
    if (!S.Writable)
      ReadOnly = true;
    if (!remapSegment(S, Err))
      return false;
    std::string_view B = S.bytes();
    S.HeaderBytes = parseSegmentHeader(B, Opts.SchemaVersion);
    if (S.HeaderBytes == 0) {
      if (Err)
        *Err = "segment " + Name + " has a bad header";
      return false;
    }
    S.ValidEnd = S.HeaderBytes;
    S.Records = 0;
    if (!scanSegmentTail(Segments.size() - 1, Err))
      return false;
  }
  return true;
}

bool Store::scanSegmentTail(size_t SegIdx, std::string *Err) {
  Segment &S = Segments[SegIdx];
  std::vector<RawRecord> Recs;
  S.ValidEnd = scanRecords(S.bytes(), S.ValidEnd, Recs);
  S.Records += Recs.size();
  for (const RawRecord &R : Recs) {
    if (R.Corrupt)
      continue; // contained: neighbors still index
    if (Opts.Validator) {
      // Structural validation happens HERE, once per record per process
      // lifetime — lookups then decode through the codec's trusted fast
      // path. A record that fails is treated exactly like a CRC
      // mismatch: skipped, neighbors unaffected.
      EventCounters::SegmentValidates.fetch_add(1, std::memory_order_relaxed);
      if (!Opts.Validator(S.bytes().substr(R.BodyOff, R.BodyLen),
                          PoolNames.size()))
        continue;
    }
    Index[R.Key] = Loc{static_cast<uint32_t>(SegIdx), R.BodyOff, R.BodyLen};
  }
  return true;
}

bool Store::initializeLocked(std::string *Err) {
  ManifestData MD;
  MD.FormatVersion = kStoreFormatVersion;
  MD.SchemaVersion = Opts.SchemaVersion;
  MD.Generation = 1;
  MD.SegmentNames.push_back(segmentName(1, 0));
  if (!writeFileDurable(Dir + "/" + MD.SegmentNames[0],
                        segmentHeader(Opts.SchemaVersion), Opts.Fsync, Err))
    return false;
  return writeManifest(Dir, MD, Opts.Fsync, Err);
}

std::unique_ptr<Store> Store::open(const std::string &Dir,
                                   const StoreOptions &Opts,
                                   std::string *Err) {
  std::unique_ptr<Store> S(new Store(Dir, Opts));
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    if (Err)
      *Err = "cannot create " + Dir + ": " + EC.message();
    return nullptr;
  }
  ManifestData MD;
  std::string E;
  ManifestStatus St = readManifest(Dir + "/MANIFEST", Opts.SchemaVersion,
                                   MD, &E);
  if (St == ManifestStatus::Missing ||
      (St == ManifestStatus::Stale && Opts.RegenerateStale)) {
    FileLock L;
    if (!L.acquire(Dir, Err))
      return nullptr;
    // Another process may have initialized or regenerated while we
    // waited for the lock.
    St = readManifest(Dir + "/MANIFEST", Opts.SchemaVersion, MD, &E);
    if (St == ManifestStatus::Stale && Opts.RegenerateStale) {
      // A stale store is a cold store: drop its segments and pool
      // wholesale.
      for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
        std::string Name = Entry.path().filename().string();
        if (Entry.path().extension() == ".rseg" ||
            Entry.path().extension() == ".rpool" ||
            Name.rfind("MANIFEST", 0) == 0)
          fs::remove(Entry.path(), EC);
      }
      St = ManifestStatus::Missing;
    }
    if (St == ManifestStatus::Missing) {
      if (!S->initializeLocked(Err))
        return nullptr;
      St = readManifest(Dir + "/MANIFEST", Opts.SchemaVersion, MD, &E);
    }
  }
  if (St != ManifestStatus::Ok) {
    if (Err)
      *Err = E;
    return nullptr;
  }
  std::unique_lock<std::shared_mutex> L(S->M);
  if (!S->loadViewLocked(Err))
    return nullptr;
  L.unlock();
  return S;
}

//===----------------------------------------------------------------------===//
// Reads
//===----------------------------------------------------------------------===//

Store::PayloadRef Store::lookup(const Hash128 &K) const {
  PayloadRef R;
  std::shared_lock<std::shared_mutex> L(M);
  auto It = Index.find(K);
  if (It == Index.end())
    return R;
  const Segment &S = Segments[It->second.Seg];
  if (!S.Mmapped)
    EventCounters::StorePayloadCopies.fetch_add(1, std::memory_order_relaxed);
  R.View = S.bytes().substr(It->second.BodyOff, It->second.BodyLen);
  R.Found = true;
  R.Lock = std::move(L);
  return R;
}

bool Store::payloadEqualsLocked(const Hash128 &K,
                                std::string_view Bytes) const {
  auto It = Index.find(K);
  if (It == Index.end())
    return false;
  const Segment &S = Segments[It->second.Seg];
  return S.bytes().substr(It->second.BodyOff, It->second.BodyLen) == Bytes;
}

bool Store::payloadEquals(const Hash128 &K, std::string_view Bytes) const {
  std::shared_lock<std::shared_mutex> L(M);
  return payloadEqualsLocked(K, Bytes);
}

uint64_t Store::generation() const {
  std::shared_lock<std::shared_mutex> L(M);
  return Generation;
}

uint64_t Store::poolSize() const {
  std::shared_lock<std::shared_mutex> L(M);
  return PoolNames.size();
}

uint64_t Store::poolEpoch() const {
  std::shared_lock<std::shared_mutex> L(M);
  return PoolEpoch;
}

void Store::forEachPoolNameFrom(
    uint64_t From,
    const std::function<void(uint64_t, std::string_view)> &Fn) const {
  std::shared_lock<std::shared_mutex> L(M);
  for (uint64_t I = From; I < PoolNames.size(); ++I)
    Fn(I, PoolNames[I]);
}

size_t Store::keyCount() const {
  std::shared_lock<std::shared_mutex> L(M);
  return Index.size();
}

size_t Store::liveBytes() const {
  // Whole-record bytes, matching inspect()'s live-bytes attribution:
  // frame (kind + key + crc + LEB length bytes) plus body.
  std::shared_lock<std::shared_mutex> L(M);
  size_t N = 0;
  for (const auto &E : Index) {
    size_t Leb = 1;
    for (uint64_t V = E.second.BodyLen; V >>= 7;)
      ++Leb;
    N += 1 + 16 + 4 + Leb + E.second.BodyLen;
  }
  return N;
}

std::vector<std::pair<Hash128, size_t>> Store::liveEntries() const {
  std::shared_lock<std::shared_mutex> L(M);
  std::vector<std::pair<Hash128, size_t>> Out;
  Out.reserve(Index.size());
  for (const auto &E : Index)
    Out.emplace_back(E.first, E.second.BodyLen);
  return Out;
}

//===----------------------------------------------------------------------===//
// Appends
//===----------------------------------------------------------------------===//

void Store::appendLocked(const Hash128 &K, std::string_view Payload,
                         uint8_t Kind) {
  PendingRec R;
  R.Key = K;
  R.BodyOff = serializeRecord(PendingBytes, K, Payload, Kind);
  R.BodyLen = static_cast<uint32_t>(Payload.size());
  Pending.push_back(R);
}

void Store::append(const Hash128 &K, std::string_view Payload, uint8_t Kind) {
  std::unique_lock<std::shared_mutex> L(M);
  appendLocked(K, Payload, Kind);
}

size_t Store::pendingRecords() const {
  std::shared_lock<std::shared_mutex> L(M);
  return Pending.size();
}

uint32_t Store::poolIdForLocked(std::string_view Name) {
  std::string Key(Name);
  auto It = PoolIds.find(Key);
  if (It != PoolIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(PoolNames.size());
  PoolIds.emplace(Key, Id);
  PoolNames.push_back(std::move(Key));
  return Id;
}

uint32_t Store::Txn::poolIdFor(std::string_view Name) {
  return S.poolIdForLocked(Name);
}

bool Store::Txn::payloadEquals(const Hash128 &K,
                               std::string_view Bytes) const {
  return S.payloadEqualsLocked(K, Bytes);
}

void Store::Txn::append(const Hash128 &K, std::string_view Payload,
                        uint8_t Kind) {
  S.appendLocked(K, Payload, Kind);
}

bool Store::syncLocked(std::string *Err) {
  ManifestData MD;
  std::string E;
  if (readManifest(Dir + "/MANIFEST", Opts.SchemaVersion, MD, &E) !=
      ManifestStatus::Ok) {
    if (Err)
      *Err = E;
    return false;
  }
  bool SameView = MD.Generation == Generation &&
                  MD.SegmentNames.size() == Segments.size();
  if (SameView)
    for (size_t I = 0; I < Segments.size(); ++I)
      SameView = SameView && MD.SegmentNames[I] == Segments[I].Name;
  if (!SameView)
    // Another process rolled a segment or compacted: rebuild wholesale.
    return loadViewLocked(Err);
  // Pool first (another process may have created or extended it), so a
  // grown segment tail validates against the matching pool size.
  if (MD.PoolName != PoolName || !PoolName.empty())
    if (!loadPoolLocked(MD.PoolName, Err))
      return false;
  // An empty store has no tail to rescan.
  if (Segments.empty())
    return true;
  // Only the active segment can have grown (appends are tail-only).
  Segment &A = Segments.back();
  struct stat St;
  if (::fstat(A.Fd, &St) != 0) {
    if (Err)
      *Err = "cannot stat segment " + A.Name;
    return false;
  }
  if (static_cast<size_t>(St.st_size) != A.FileBytes) {
    if (!remapSegment(A, Err))
      return false;
    if (!scanSegmentTail(Segments.size() - 1, Err))
      return false;
  }
  return true;
}

bool Store::refresh(std::string *Err) {
  std::unique_lock<std::shared_mutex> L(M);
  return syncLocked(Err);
}

bool Store::flush(std::string *Err) {
  std::unique_lock<std::shared_mutex> L(M);
  if (Pending.empty())
    return true;
  return flushLocked(nullptr, Err);
}

bool Store::flushWith(const std::function<bool(Txn &)> &Fill,
                      std::string *Err) {
  std::unique_lock<std::shared_mutex> L(M);
  return flushLocked(&Fill, Err);
}

bool Store::writePoolAdditionsLocked(size_t FromId, std::string *Err) {
  if (PoolNames.size() <= FromId)
    return true;
  std::string Bytes;
  for (size_t I = FromId; I < PoolNames.size(); ++I)
    serializePoolRecord(Bytes, PoolNames[I]);
  if (PoolName.empty()) {
    // First pool for this store: write the file under its final name,
    // then publish it with a MANIFEST that carries the pool line. Until
    // that rename lands, no reader sees the pool — and no record
    // referencing its ids exists yet, because segment records are only
    // written after this returns.
    std::string Name = poolFileName(Generation);
    std::string Content = poolHeader(Opts.SchemaVersion) + Bytes;
    if (!writeFileDurable(Dir + "/" + Name, Content, Opts.Fsync, Err))
      return false;
    ManifestData MD;
    MD.FormatVersion = kStoreFormatVersion;
    MD.SchemaVersion = Opts.SchemaVersion;
    MD.Generation = Generation;
    MD.PoolName = Name;
    for (const Segment &S : Segments)
      MD.SegmentNames.push_back(S.Name);
    if (!writeManifest(Dir, MD, Opts.Fsync, Err))
      return false;
    PoolName = Name;
    PoolValidEnd = Content.size();
    PoolSynced = PoolNames.size();
    return true;
  }
  int Fd = ::open((Dir + "/" + PoolName).c_str(), O_RDWR | O_CLOEXEC);
  if (Fd < 0) {
    if (Err)
      *Err = "cannot open pool " + PoolName + ": " + errnoString(errno);
    return false;
  }
  // Heal a torn pool tail before appending: under the exclusive lock,
  // bytes past the valid end are debris from a crashed writer.
  bool Ok = ::ftruncate(Fd, static_cast<off_t>(PoolValidEnd)) == 0;
  size_t Done = 0;
  while (Ok && Done < Bytes.size()) {
    ssize_t N = ::pwrite(Fd, Bytes.data() + Done, Bytes.size() - Done,
                         static_cast<off_t>(PoolValidEnd + Done));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Ok = false;
      break;
    }
    Done += static_cast<size_t>(N);
  }
  // The pool additions are durable BEFORE any segment record that
  // references them: a crash after this point leaves unused names, never
  // dangling ids.
  Ok = Ok && (!Opts.Fsync || ::fdatasync(Fd) == 0);
  ::close(Fd);
  if (!Ok) {
    if (Err)
      *Err = "cannot append to pool " + PoolName;
    return false;
  }
  PoolValidEnd += Bytes.size();
  PoolSynced = PoolNames.size();
  return true;
}

bool Store::flushLocked(const std::function<bool(Txn &)> *Fill,
                        std::string *Err) {
  if (ReadOnly) {
    if (Err)
      *Err = "store is read-only";
    return false;
  }
  FileLock FL;
  if (!FL.acquire(Dir, Err))
    return false;
  if (!syncLocked(Err))
    return false;

  size_t PoolStart = PoolNames.size();
  size_t PendStart = Pending.size();
  size_t PendBytesStart = PendingBytes.size();
  auto RollbackPool = [&] {
    for (size_t I = PoolStart; I < PoolNames.size(); ++I)
      PoolIds.erase(PoolNames[I]);
    PoolNames.resize(PoolStart);
  };
  auto RollbackPending = [&] {
    Pending.resize(PendStart);
    PendingBytes.resize(PendBytesStart);
  };

  if (Fill) {
    Txn T(*this);
    if (!(*Fill)(T)) {
      RollbackPool();
      RollbackPending();
      if (Err && Err->empty())
        *Err = "flush callback failed";
      return false;
    }
  }
  if (Pending.empty() && PoolNames.size() == PoolStart)
    return true;

  // Pool additions land first. If this fails, nothing referencing the
  // new ids was written, so both the names and the staged records roll
  // back cleanly. Once it succeeds the names are durable and stay —
  // later failures roll back only the staged records (a retried flush
  // re-resolves the same names to the same ids).
  if (!writePoolAdditionsLocked(PoolStart, Err)) {
    RollbackPool();
    RollbackPending();
    return false;
  }
  if (Pending.empty())
    return true;
  if (!writePendingLocked(Err)) {
    RollbackPending();
    return false;
  }
  return true;
}

bool Store::writePendingLocked(std::string *Err) {
  // Heal a torn tail: under the exclusive lock nobody else is mid-append,
  // so bytes past the valid end are debris from a crashed writer.
  if (!Segments.empty()) {
    Segment &A = Segments.back();
    if (A.FileBytes > A.ValidEnd) {
      if (::ftruncate(A.Fd, static_cast<off_t>(A.ValidEnd)) != 0) {
        if (Err)
          *Err = "cannot truncate torn tail of " + A.Name;
        return false;
      }
      if (!remapSegment(A, Err))
        return false;
      A.ValidEnd = A.FileBytes;
    }
  }

  // Roll to a fresh segment once the active one is oversized — or when
  // the view has none at all (a MANIFEST-only empty store). The MANIFEST
  // gains a segment line (same generation) before any record lands in
  // the new file, so readers always discover it.
  if (Segments.empty() || Segments.back().ValidEnd >= Opts.MaxSegmentBytes) {
    uint64_t Seq = 0;
    if (!Segments.empty()) {
      uint64_t Gen = 0, PrevSeq = 0;
      parseSegmentName(Segments.back().Name, Gen, PrevSeq);
      Seq = PrevSeq + 1;
    }
    std::string Name = segmentName(Generation, Seq);
    if (!writeFileDurable(Dir + "/" + Name, segmentHeader(Opts.SchemaVersion),
                          Opts.Fsync, Err))
      return false;
    ManifestData MD;
    MD.FormatVersion = kStoreFormatVersion;
    MD.SchemaVersion = Opts.SchemaVersion;
    MD.Generation = Generation;
    MD.PoolName = PoolName;
    for (const Segment &S : Segments)
      MD.SegmentNames.push_back(S.Name);
    MD.SegmentNames.push_back(Name);
    if (!writeManifest(Dir, MD, Opts.Fsync, Err))
      return false;
    Segments.emplace_back();
    Segment &S = Segments.back();
    S.Name = Name;
    S.Fd = ::open((Dir + "/" + Name).c_str(), O_RDWR | O_CLOEXEC);
    S.Writable = S.Fd >= 0;
    if (S.Fd < 0 || !remapSegment(S, Err)) {
      if (Err && S.Fd < 0)
        *Err = "cannot reopen rolled segment " + Name;
      return false;
    }
    S.HeaderBytes = parseSegmentHeader(S.bytes(), Opts.SchemaVersion);
    S.ValidEnd = S.HeaderBytes;
  }

  Segment &A = Segments.back();
  size_t Base = A.ValidEnd;
  size_t Done = 0;
  while (Done < PendingBytes.size()) {
    ssize_t N = ::pwrite(A.Fd, PendingBytes.data() + Done,
                         PendingBytes.size() - Done,
                         static_cast<off_t>(Base + Done));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        *Err = "cannot append to " + A.Name + ": " + errnoString(errno);
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  if (Opts.Fsync && ::fdatasync(A.Fd) != 0) {
    if (Err)
      *Err = "cannot fdatasync " + A.Name;
    return false;
  }
  if (!remapSegment(A, Err))
    return false;
  A.ValidEnd = Base + PendingBytes.size();
  A.Records += Pending.size();
  uint32_t SegIdx = static_cast<uint32_t>(Segments.size() - 1);
  for (const PendingRec &R : Pending)
    Index[R.Key] = Loc{SegIdx, Base + R.BodyOff, R.BodyLen};
  EventCounters::StoreAppends.fetch_add(Pending.size(),
                                        std::memory_order_relaxed);
  trace::instant("store.append", "store",
                 static_cast<int64_t>(Pending.size()));
  Pending.clear();
  PendingBytes.clear();
  PendingBytes.shrink_to_fit();
  return true;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

std::optional<StoreCompactResult> Store::compact(std::string *Err) {
  return compactImpl(nullptr, Err);
}

std::optional<StoreCompactResult>
Store::compact(const std::function<bool(const Hash128 &, size_t)> &Keep,
               std::string *Err) {
  return compactImpl(&Keep, Err);
}

std::optional<StoreCompactResult>
Store::compactImpl(const std::function<bool(const Hash128 &, size_t)> *Keep,
                   std::string *Err) {
  std::unique_lock<std::shared_mutex> L(M);
  if (ReadOnly) {
    if (Err)
      *Err = "store is read-only";
    return std::nullopt;
  }
  FileLock FL;
  if (!FL.acquire(Dir, Err))
    return std::nullopt;
  if (!syncLocked(Err))
    return std::nullopt;

  // Fold pending appends in as live entries rather than losing or
  // double-writing them: they simply join the survivor set.
  std::vector<std::pair<Hash128, std::string_view>> Live;
  Live.reserve(Index.size() + Pending.size());
  for (const auto &E : Index) {
    const Segment &S = Segments[E.second.Seg];
    Live.emplace_back(E.first, S.bytes().substr(E.second.BodyOff,
                                                E.second.BodyLen));
  }
  for (const PendingRec &R : Pending) {
    std::string_view Body =
        std::string_view(PendingBytes).substr(R.BodyOff, R.BodyLen);
    bool Replaced = false;
    for (auto &E : Live)
      if (E.first == R.Key) {
        E.second = Body; // pending beats stored: it is the latest writer
        Replaced = true;
      }
    if (!Replaced)
      Live.emplace_back(R.Key, Body);
  }

  size_t TotalRecords = Pending.size();
  for (const Segment &S : Segments)
    TotalRecords += S.Records;

  StoreCompactResult Out;
  std::vector<std::pair<Hash128, std::string_view>> Kept;
  Kept.reserve(Live.size());
  for (auto &E : Live) {
    if (Keep && !(*Keep)(E.first, E.second.size()))
      continue;
    Kept.push_back(E);
  }
  // Deterministic segment contents: key order.
  std::sort(Kept.begin(), Kept.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  uint64_t NewGen = Generation + 1;
  std::string NewName = segmentName(NewGen, 0);
  std::string NewPoolName =
      PoolNames.empty() ? std::string() : poolFileName(NewGen);

  // Old directory footprint: the manifest's segments and pool plus any
  // orphan segments/pools a killed compaction left behind. A gen+1
  // orphan shares the NEW segment's (or pool's) name (this compaction IS
  // that one's retry) — it gets overwritten below, so it is neither an
  // orphan to delete nor old bytes to count.
  size_t OldBytes = 0;
  for (const Segment &S : Segments)
    OldBytes += S.FileBytes;
  OldBytes += PoolValidEnd;
  std::error_code EC;
  std::vector<std::string> Orphans;
  for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
    std::string Name = Entry.path().filename().string();
    bool InManifest = Name == NewName || Name == NewPoolName ||
                      (!PoolName.empty() && Name == PoolName);
    for (const Segment &S : Segments)
      InManifest = InManifest || S.Name == Name;
    if (!InManifest && (Entry.path().extension() == ".rseg" ||
                        Entry.path().extension() == ".rpool" ||
                        Name.rfind("MANIFEST.tmp", 0) == 0)) {
      Orphans.push_back(Name);
      OldBytes += static_cast<size_t>(fs::file_size(Entry.path(), EC));
    }
  }

  // The pool is carried into the new generation verbatim (same names,
  // same ids — records keep their pool references bit-for-bit). Written
  // under its final name BEFORE the MANIFEST flips, same crash
  // discipline as the segment: a crash leaves an orphan the old
  // generation never reads.
  std::string NewPoolBytes;
  if (!NewPoolName.empty()) {
    NewPoolBytes = poolHeader(Opts.SchemaVersion);
    for (const std::string &N : PoolNames)
      serializePoolRecord(NewPoolBytes, N);
    if (!writeFileDurable(Dir + "/" + NewPoolName, NewPoolBytes, Opts.Fsync,
                          Err))
      return std::nullopt;
  }
  std::string NewBytes = segmentHeader(Opts.SchemaVersion);
  for (const auto &E : Kept) {
    serializeRecord(NewBytes, E.first, E.second,
                    E.second.empty()
                        ? 0
                        : static_cast<uint8_t>(
                              static_cast<unsigned char>(E.second[0])));
    Out.LiveBytes += E.second.size();
  }
  Out.LiveRecords = Kept.size();
  Out.DroppedRecords = TotalRecords - Kept.size();
  // The new segment is written under its final name BEFORE the MANIFEST
  // flips: a crash here leaves an orphan the old generation never reads.
  if (!writeFileDurable(Dir + "/" + NewName, NewBytes, Opts.Fsync, Err))
    return std::nullopt;
  ManifestData MD;
  MD.FormatVersion = kStoreFormatVersion;
  MD.SchemaVersion = Opts.SchemaVersion;
  MD.Generation = NewGen;
  MD.PoolName = NewPoolName;
  MD.SegmentNames.push_back(NewName);
  if (!writeManifest(Dir, MD, Opts.Fsync, Err))
    return std::nullopt;

  // Point of no return: the new generation is durable. Retire the old
  // segments, the old pool, and any orphans (readers that mmapped them
  // keep their mappings — unlink does not invalidate established maps).
  for (Segment &S : Segments) {
    std::string Name = S.Name;
    S.close();
    fs::remove(Dir + "/" + Name, EC);
  }
  if (!PoolName.empty() && PoolName != NewPoolName)
    fs::remove(Dir + "/" + PoolName, EC);
  for (const std::string &Name : Orphans)
    fs::remove(Dir + "/" + Name, EC);
  size_t NewTotal = NewBytes.size() + NewPoolBytes.size();
  Out.ReclaimedBytes = OldBytes > NewTotal ? OldBytes - NewTotal : 0;
  Out.Generation = NewGen;

  Pending.clear();
  PendingBytes.clear();
  Segments.clear();
  Index.clear();
  if (!loadViewLocked(Err))
    return std::nullopt;
  EventCounters::StoreCompactions.fetch_add(1, std::memory_order_relaxed);
  trace::instant("store.compact", "store", 1);
  return Out;
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

bool Store::isUninitializedDir(const std::string &Path) {
  std::error_code EC;
  if (!fs::is_directory(Path, EC))
    return false;
  for (const auto &Entry : fs::directory_iterator(Path, EC)) {
    std::string Name = Entry.path().filename().string();
    if (Name == "LOCK")
      continue; // a concurrent open's lock file does not make it a store
    return false;
  }
  return true;
}

StoreInfo Store::inspect(const std::string &Dir, unsigned SchemaVersion) {
  StoreInfo Info;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC)) {
    Info.Error = "not a directory";
    return Info;
  }
  ManifestData MD;
  std::string E;
  ManifestStatus St = readManifest(Dir + "/MANIFEST", SchemaVersion, MD, &E);
  Info.FormatVersion = MD.FormatVersion;
  Info.SchemaVersion = MD.SchemaVersion;
  if (St == ManifestStatus::Missing) {
    Info.Error = "no MANIFEST — not an artifact store";
    return Info;
  }
  if (St == ManifestStatus::Stale || St == ManifestStatus::Newer) {
    Info.Stale = St == ManifestStatus::Stale;
    Info.Newer = St == ManifestStatus::Newer;
    Info.Error = E;
    return Info;
  }
  if (St != ManifestStatus::Ok) {
    Info.Error = E;
    return Info;
  }
  Info.Generation = MD.Generation;
  if (!MD.PoolName.empty()) {
    std::string PoolBytes = slurpFile(Dir + "/" + MD.PoolName);
    Info.PoolBytes = PoolBytes.size();
    size_t H = parsePoolHeader(PoolBytes, MD.SchemaVersion);
    if (H != 0) {
      std::vector<std::string_view> Names;
      scanPoolRecords(PoolBytes, H, Names);
      Info.PoolNames = Names.size();
    }
  }

  // Scan every segment, then attribute live/dead per segment: the live
  // record for a key is the LAST frame-valid one in manifest+file order.
  struct SegScan {
    std::string Bytes;
    std::vector<RawRecord> Recs;
    size_t ValidEnd = 0;
    size_t HeaderBytes = 0;
  };
  std::vector<SegScan> Scans(MD.SegmentNames.size());
  std::unordered_map<Hash128, std::pair<size_t, size_t>, Hash128Hasher>
      LiveAt; // key -> (segment, record index)
  for (size_t SI = 0; SI < MD.SegmentNames.size(); ++SI) {
    SegScan &SS = Scans[SI];
    SS.Bytes = slurpFile(Dir + "/" + MD.SegmentNames[SI]);
    SS.HeaderBytes = parseSegmentHeader(SS.Bytes, MD.SchemaVersion);
    if (SS.HeaderBytes == 0) {
      Info.Error = "segment " + MD.SegmentNames[SI] + " has a bad header";
      return Info;
    }
    SS.ValidEnd = scanRecords(SS.Bytes, SS.HeaderBytes, SS.Recs);
    for (size_t RI = 0; RI < SS.Recs.size(); ++RI)
      if (!SS.Recs[RI].Corrupt)
        LiveAt[SS.Recs[RI].Key] = {SI, RI};
  }
  for (size_t SI = 0; SI < Scans.size(); ++SI) {
    const SegScan &SS = Scans[SI];
    StoreSegmentInfo Seg;
    Seg.Name = MD.SegmentNames[SI];
    Seg.FileBytes = SS.Bytes.size();
    Seg.Records = SS.Recs.size();
    Seg.DeadBytes = SS.Bytes.size() - SS.ValidEnd; // torn tail, if any
    for (size_t RI = 0; RI < SS.Recs.size(); ++RI) {
      const RawRecord &R = SS.Recs[RI];
      bool IsLive = false;
      if (!R.Corrupt) {
        auto It = LiveAt.find(R.Key);
        IsLive = It != LiveAt.end() && It->second.first == SI &&
                 It->second.second == RI;
      }
      Seg.CorruptRecords += R.Corrupt;
      if (IsLive) {
        ++Seg.LiveRecords;
        Seg.LiveBytes += R.TotalLen;
        ++Info.LiveKindCounts[R.Kind];
      } else {
        Seg.DeadBytes += R.TotalLen;
      }
    }
    Info.LiveBytes += Seg.LiveBytes;
    Info.DeadBytes += Seg.DeadBytes;
    Info.Segments.push_back(std::move(Seg));
  }
  Info.KeyCount = LiveAt.size();
  Info.Ok = true;
  return Info;
}

//===----------------------------------------------------------------------===//
// fsck
//===----------------------------------------------------------------------===//

StoreFsckReport Store::fsck(
    const std::string &Dir, unsigned SchemaVersion,
    const std::function<bool(std::string_view, uint64_t)> &ValidatePayload) {
  StoreFsckReport Rep;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC)) {
    Rep.Error = "not a directory";
    return Rep;
  }
  ManifestData MD;
  std::string E;
  ManifestStatus St = readManifest(Dir + "/MANIFEST", SchemaVersion, MD, &E);
  if (St == ManifestStatus::Missing) {
    Rep.Error = "no MANIFEST — not an artifact store";
    return Rep;
  }
  if (St == ManifestStatus::Stale || St == ManifestStatus::Newer) {
    Rep.Stale = St == ManifestStatus::Stale;
    Rep.Newer = St == ManifestStatus::Newer;
    Rep.Error = E;
    return Rep;
  }
  if (St != ManifestStatus::Ok) {
    // A readable but malformed MANIFEST: the scan cannot run, but the
    // finding is still localized (the MANIFEST itself).
    Rep.Error = E;
    Rep.Violations.push_back({"MANIFEST", 0, false, {}, E});
    return Rep;
  }
  Rep.Generation = MD.Generation;

  auto Violate = [&](const std::string &File, uint64_t Off, std::string Msg) {
    Rep.Violations.push_back({File, Off, false, {}, std::move(Msg)});
  };
  auto ViolateKey = [&](const std::string &File, uint64_t Off,
                        const Hash128 &K, std::string Msg) {
    Rep.Violations.push_back({File, Off, true, K, std::move(Msg)});
  };

  // ---- Cross-references: every store-shaped file accounted for --------
  {
    std::unordered_set<std::string> Referenced(MD.SegmentNames.begin(),
                                               MD.SegmentNames.end());
    if (!MD.PoolName.empty())
      Referenced.insert(MD.PoolName);
    for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
      std::string Name = Entry.path().filename().string();
      bool StoreShaped = Name.size() > 5 &&
                         (Name.rfind(".rseg") == Name.size() - 5 ||
                          Name.rfind(".rpool") == Name.size() - 6);
      if (StoreShaped && !Referenced.count(Name))
        Violate(Name, 0,
                "not referenced by MANIFEST (orphan of an interrupted "
                "compaction)");
    }
  }

  // ---- The name pool --------------------------------------------------
  // A name's pool id is its ordinal, so the first corrupt record
  // invalidates every id at or after it; the walk distinguishes that
  // from a torn tail and reports the exact offset either way.
  uint64_t PoolSize = 0;
  if (!MD.PoolName.empty()) {
    if (!fs::exists(Dir + "/" + MD.PoolName, EC)) {
      Violate(MD.PoolName, 0, "pool file named by MANIFEST is missing");
    } else {
      std::string PB = slurpFile(Dir + "/" + MD.PoolName);
      size_t H = parsePoolHeader(PB, MD.SchemaVersion);
      if (H == 0) {
        Violate(MD.PoolName, 0, "bad pool header");
      } else {
        size_t Pos = H;
        bool Bad = false;
        while (Pos + 8 <= PB.size()) {
          uint32_t Crc = loadLE32(PB.data() + Pos);
          uint64_t Len = loadLE32(PB.data() + Pos + 4);
          if (Len > kMaxPoolNameBytes || Len > PB.size() - Pos - 8) {
            Violate(MD.PoolName, Pos,
                    "torn pool record for name #" + std::to_string(PoolSize));
            Bad = true;
            break;
          }
          Crc32c C;
          C.update(PB.data() + Pos + 4, 4 + Len);
          if (C.value() != Crc) {
            Violate(MD.PoolName, Pos,
                    "pool name record #" + std::to_string(PoolSize) +
                        " CRC mismatch (this id and every later one is "
                        "unresolvable)");
            Bad = true;
            break;
          }
          ++PoolSize;
          Pos += 8 + Len;
        }
        if (!Bad && Pos != PB.size())
          Violate(MD.PoolName, Pos,
                  "torn pool tail (" + std::to_string(PB.size() - Pos) +
                      " trailing bytes)");
      }
    }
  }
  Rep.PoolNames = PoolSize;

  // ---- Segments: frame CRC, kind convention, payload validation -------
  struct SegScan {
    std::string Bytes;
    std::vector<RawRecord> Recs;
    size_t ValidEnd = 0;
  };
  std::vector<SegScan> Scans(MD.SegmentNames.size());
  std::unordered_map<Hash128, std::pair<size_t, size_t>, Hash128Hasher>
      LiveAt; // key -> (segment, record index), last frame-valid wins
  for (size_t SI = 0; SI < MD.SegmentNames.size(); ++SI) {
    const std::string &Name = MD.SegmentNames[SI];
    SegScan &SS = Scans[SI];
    if (!fs::exists(Dir + "/" + Name, EC)) {
      Violate(Name, 0, "segment named by MANIFEST is missing");
      continue;
    }
    SS.Bytes = slurpFile(Dir + "/" + Name);
    size_t Header = parseSegmentHeader(SS.Bytes, MD.SchemaVersion);
    if (Header == 0) {
      Violate(Name, 0, "bad segment header");
      continue;
    }
    ++Rep.SegmentsScanned;
    SS.ValidEnd = scanRecords(SS.Bytes, Header, SS.Recs);
    Rep.RecordsScanned += SS.Recs.size();
    if (SS.ValidEnd != SS.Bytes.size())
      Violate(Name, SS.ValidEnd,
              "torn record tail (" +
                  std::to_string(SS.Bytes.size() - SS.ValidEnd) +
                  " trailing bytes unreadable)");
    for (size_t RI = 0; RI < SS.Recs.size(); ++RI) {
      const RawRecord &R = SS.Recs[RI];
      if (R.Corrupt) {
        ViolateKey(Name, R.Start, R.Key, "record CRC32C mismatch");
        continue;
      }
      LiveAt[R.Key] = {SI, RI};
      std::string_view Body(SS.Bytes.data() + R.BodyOff, R.BodyLen);
      // Kind-byte convention (appends stamp the payload's leading tag
      // byte); only meaningful for payloads the caller can interpret.
      if (ValidatePayload && R.BodyLen > 0 &&
          R.Kind != static_cast<uint8_t>(static_cast<unsigned char>(Body[0])))
        ViolateKey(Name, R.Start, R.Key,
                   "kind byte " + std::to_string(unsigned(R.Kind)) +
                       " disagrees with payload tag " +
                       std::to_string(unsigned(static_cast<unsigned char>(
                           Body[0]))));
      if (ValidatePayload && !ValidatePayload(Body, PoolSize))
        ViolateKey(Name, R.Start, R.Key,
                   "payload fails structural validation against a pool of " +
                       std::to_string(PoolSize) + " names");
    }
  }
  for (const auto &[K, Loc] : LiveAt) {
    (void)K;
    (void)Loc;
    ++Rep.LiveRecords;
  }

  // ---- LWW liveness reconciled with inspect() -------------------------
  // inspect() attributes live/dead bytes with its own pass over the same
  // files; the two accountings must agree exactly.
  StoreInfo Info = Store::inspect(Dir, SchemaVersion);
  if (!Info.Ok) {
    Violate("MANIFEST", 0, "inspect() failed on a scannable store: " +
                               Info.Error);
  } else {
    if (Info.KeyCount != LiveAt.size())
      Violate("MANIFEST", 0,
              "liveness accounting mismatch: fsck sees " +
                  std::to_string(LiveAt.size()) + " live keys, inspect " +
                  std::to_string(Info.KeyCount));
    if (Info.PoolNames != PoolSize)
      Violate(MD.PoolName.empty() ? "MANIFEST" : MD.PoolName, 0,
              "pool accounting mismatch: fsck sees " +
                  std::to_string(PoolSize) + " names, inspect " +
                  std::to_string(Info.PoolNames));
    for (size_t SI = 0;
         SI < Scans.size() && SI < Info.Segments.size(); ++SI) {
      size_t Live = 0, LiveBytes = 0;
      for (size_t RI = 0; RI < Scans[SI].Recs.size(); ++RI) {
        const RawRecord &R = Scans[SI].Recs[RI];
        if (R.Corrupt)
          continue;
        auto It = LiveAt.find(R.Key);
        if (It != LiveAt.end() && It->second.first == SI &&
            It->second.second == RI) {
          ++Live;
          LiveBytes += R.TotalLen;
        }
      }
      if (Live != Info.Segments[SI].LiveRecords ||
          LiveBytes != Info.Segments[SI].LiveBytes)
        Violate(MD.SegmentNames[SI], 0,
                "per-segment liveness mismatch: fsck sees " +
                    std::to_string(Live) + " live records / " +
                    std::to_string(LiveBytes) + " bytes, inspect " +
                    std::to_string(Info.Segments[SI].LiveRecords) + " / " +
                    std::to_string(Info.Segments[SI].LiveBytes));
    }
  }

  Rep.Ok = true;
  return Rep;
}
